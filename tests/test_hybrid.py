"""Unit tests for the memory-bounded CPU–GPU hybrid tier (repro.hybrid)."""

import numpy as np
import pytest

from repro import ALGASSystem, HybridSystem, ServeConfig, build_pilot, recall
from repro.core.serving import QueryJob
from repro.data import load_dataset
from repro.data.groundtruth import exact_knn
from repro.gpusim.memory import footprint_bytes
from repro.graphs import build_nsw
from repro.hybrid import bounded_refine, size_pilot
from repro.resilience import FaultPlan, PCIeStall


@pytest.fixture(scope="module")
def corpus():
    ds = load_dataset("sift1m-mini", n=2000, n_queries=32)
    graph = build_nsw(ds.base, m=12, metric=ds.metric, seed=0)
    return ds, graph


# ------------------------------------------------------------------- pilot
def test_size_pilot_fits_and_shrinks():
    ratio, pdim = size_pilot(10_000, 128, 16, capacity_bytes=1 << 22)
    n_p = int(round(ratio * 10_000))
    assert footprint_bytes(n_p, pdim, n_p * 16) <= 1 << 22
    # explicit over-budget ratio is shrunk, never grown
    ratio2, _ = size_pilot(10_000, 128, 16, capacity_bytes=1 << 20,
                           sample_ratio=1.0, pilot_dim=32)
    assert ratio2 < 1.0
    with pytest.raises(ValueError):
        size_pilot(10_000, 128, 16, capacity_bytes=64)


def test_build_pilot_structure(corpus):
    ds, graph = corpus
    n, dim = ds.base.shape
    cap = footprint_bytes(n, dim, graph.n_edges) // 4
    pilot = build_pilot(ds.base, graph, metric=ds.metric, capacity_bytes=cap,
                        seed=0)
    assert pilot.plan.fits
    assert pilot.pilot_dim < dim
    assert pilot.points.shape == (pilot.n_pilot, pilot.pilot_dim)
    assert pilot.graph.n_vertices == pilot.n_pilot
    # sample ids are sorted, unique, in range
    s = pilot.sample_ids
    assert np.all(np.diff(s) > 0) and s[0] >= 0 and s[-1] < n
    # to_full maps pilot-local ids back to corpus ids, -1 passes through
    ids = np.array([0, pilot.n_pilot - 1, -1])
    out = pilot.to_full(ids)
    assert out[0] == s[0] and out[1] == s[-1] and out[2] == -1
    # projection maps query dim -> pilot dim
    q = pilot.project(ds.queries[:3])
    assert q.shape == (3, pilot.pilot_dim) and q.dtype == np.float32
    with pytest.raises(ValueError):
        pilot.project(np.zeros(dim + 1, dtype=np.float32))


def test_build_pilot_deterministic(corpus):
    ds, graph = corpus
    p1 = build_pilot(ds.base, graph, metric=ds.metric, sample_ratio=0.5,
                     pilot_dim=32, seed=3)
    p2 = build_pilot(ds.base, graph, metric=ds.metric, sample_ratio=0.5,
                     pilot_dim=32, seed=3)
    assert np.array_equal(p1.sample_ids, p2.sample_ids)
    assert np.array_equal(p1.points, p2.points)
    assert np.array_equal(p1.graph.indices, p2.graph.indices)


def test_build_pilot_random_reduction(corpus):
    ds, graph = corpus
    pilot = build_pilot(ds.base, graph, metric=ds.metric, sample_ratio=0.5,
                        pilot_dim=32, reduction="random", seed=0)
    assert pilot.reduction == "random"
    assert pilot.mean is None
    with pytest.raises(ValueError, match="reduction"):
        build_pilot(ds.base, graph, metric=ds.metric, reduction="pca")


# ------------------------------------------------------------------ refine
def test_bounded_refine_step_cap(corpus):
    ds, graph = corpus
    q = ds.queries[:8]
    entries = [np.array([0, 5]) for _ in range(len(q))]
    unbounded = bounded_refine(ds.base, graph, q, entries, k=5, ef=16,
                               max_steps=None, metric=ds.metric)
    capped = bounded_refine(ds.base, graph, q, entries, k=5, ef=16,
                            max_steps=2, metric=ds.metric)
    rerank_only = bounded_refine(ds.base, graph, q, entries, k=5, ef=16,
                                 max_steps=0, metric=ds.metric)
    assert capped.n_steps <= 2
    assert rerank_only.n_steps == 0
    assert np.all(rerank_only.n_distances <= capped.n_distances)
    assert np.all(capped.n_distances <= unbounded.n_distances)
    # rerank-only pools contain only the entries
    assert set(rerank_only.ids[0][rerank_only.ids[0] >= 0]) <= {0, 5}


def test_bounded_refine_empty_entries(corpus):
    ds, graph = corpus
    r = bounded_refine(ds.base, graph, ds.queries[:2],
                       [np.array([], dtype=np.int64), np.array([3])],
                       k=3, ef=8, max_steps=4, metric=ds.metric)
    assert (r.ids[0] >= 0).any()  # fallback entry kept the query alive


# ------------------------------------------------------------------- tiers
def test_serve_config_tier_validates():
    """The tier is the system class (HybridSystem or ALGASSystem), not a
    per-serve choice."""
    with pytest.raises(TypeError, match="tier"):
        ServeConfig(tier="hybrid")


def test_queryjob_hybrid_fields_validate():
    with pytest.raises(ValueError, match="host_us"):
        QueryJob(0, 0.0, (1.0,), 128, 4, host_us=-1.0)
    with pytest.raises(ValueError, match="result_entries"):
        QueryJob(0, 0.0, (1.0,), 128, 4, result_entries=0)


def test_base_system_rejects_hybrid_tier(corpus):
    """A system without a pilot index has no hybrid tier to select."""
    ds, graph = corpus
    kw = dict(metric=ds.metric, k=4, l_total=32, batch_size=4, seed=0)
    with pytest.raises(TypeError, match="tier"):
        ALGASSystem(ds.base, graph, tier="hybrid", **kw)
    report = ALGASSystem(ds.base, graph, **kw).serve(ds.queries[:4])
    assert "tier" not in report.serve.meta


def test_hybrid_system_tier_validates(corpus):
    """A HybridSystem always serves the hybrid tier; the full graph on the
    device is an ALGASSystem."""
    ds, graph = corpus
    with pytest.raises(TypeError, match="tier"):
        HybridSystem(ds.base, graph, metric=ds.metric, tier="gpu")


def test_hybrid_serve_end_to_end(corpus):
    ds, graph = corpus
    gt, _ = exact_knn(ds.queries, ds.base, 8, ds.metric)
    system = HybridSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                          batch_size=4, seed=0, sample_ratio=0.5, pilot_dim=32,
                          n_candidates=16, refine_steps=8)
    report = system.serve(ds.queries)
    assert recall(report.ids, gt[:, :8]) > 0.8
    meta = report.serve.meta["tier"]
    assert meta["tier"] == "hybrid"
    assert meta["pilot"]["n_pilot"] == system.pilot.n_pilot
    assert meta["refine"]["mean_host_us"] > 0
    # pilot traces ship reduced-dimension queries
    assert report.traces[0].dim == system.pilot.pilot_dim
    # candidate DMA is visible on the PCIe ledger
    assert report.serve.pcie.by_tag["candidates"] > 0


def test_pcie_stall_hurts_refinement_hop(corpus):
    """Resilience composition: a PCIe stall window must slow hybrid serving
    — the candidate shipment sits on the stalled link."""
    ds, graph = corpus
    kw = dict(metric=ds.metric, k=8, l_total=32, batch_size=4, seed=0,
              sample_ratio=0.5, pilot_dim=32, n_candidates=16, refine_steps=2)
    clean = HybridSystem(ds.base, graph, **kw).serve(ds.queries[:16])
    stall = FaultPlan(pcie_stalls=[PCIeStall(start_us=0.0, duration_us=200.0)])
    faulted = HybridSystem(ds.base, graph, **kw).serve(
        ds.queries[:16], ServeConfig(faults=stall)
    )
    assert faulted.serve.mean_latency_us() > clean.serve.mean_latency_us() + 20
    # results are unaffected — the stall delays, never corrupts
    assert np.array_equal(clean.ids, faulted.ids)

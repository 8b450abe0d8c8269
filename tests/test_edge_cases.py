"""Failure-injection and boundary-condition tests across modules."""

from functools import partial

import numpy as np
import pytest

from repro.baselines import CAGRASystem, IVFSystem
from repro.core import ALGASSystem, ReplicatedServer, ShardedServer
from repro.core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
from repro.core.serving import QueryJob, price_jobs
from repro.core.static_batcher import StaticBatchConfig, StaticBatchEngine
from repro.data.metrics import normalize
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import (
    build_cagra,
    build_hnsw,
    build_nsg,
    build_nsw,
)
from repro.graphs.base import GraphIndex
from repro.graphs.dynamic import DynamicGraph

from .reference import intra_cta_search, multi_cta_search


def test_search_isolated_entry_returns_partial():
    """Entry vertex with no edges: search ends after checking it."""
    pts = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
    lists = [np.empty(0, np.int32)] * 10
    g = GraphIndex.from_neighbor_lists(lists)
    r = intra_cta_search(pts, g, pts[3], 5, 8, entries=0)
    assert len(r.ids) == 1 and r.ids[0] == 0  # only the entry was reachable


def test_search_small_component():
    """Component smaller than k: fewer than k results, no crash."""
    pts = np.random.default_rng(1).normal(size=(10, 4)).astype(np.float32)
    lists = [np.array([1], np.int32), np.array([0], np.int32)] + [
        np.empty(0, np.int32)
    ] * 8
    g = GraphIndex.from_neighbor_lists(lists)
    r = intra_cta_search(pts, g, pts[0], 5, 8, entries=0)
    assert set(r.ids.tolist()) == {0, 1}


def test_pipeline_pads_short_results():
    pts = np.random.default_rng(2).normal(size=(40, 4)).astype(np.float32)
    # a ring graph is connected but tiny; ask for more results than L
    lists = [np.array([(i + 1) % 40], np.int32) for i in range(40)]
    g = GraphIndex.from_neighbor_lists(lists)
    sys_ = ALGASSystem(pts, g, k=8, l_total=8, batch_size=2, max_parallel=2)
    rep = sys_.serve(pts[:3])
    assert rep.ids.shape == (3, 8)
    assert (rep.ids >= -1).all()


def test_corpus_smaller_than_the_seeds_serves_padded_rows():
    """12 points under 8 CTAs that seed 8 entries each: hashed entries
    repeat instead of running out, so ALGAS, CAGRA and a DynamicGraph each
    serve valid, duplicate-free rows, -1 padded past the corpus."""
    pts = np.random.default_rng(3).normal(size=(12, 4)).astype(np.float32)
    g = build_cagra(pts, graph_degree=4)
    served = []
    for cls in (ALGASSystem, CAGRASystem):
        system = cls(pts, g, k=16, l_total=32, batch_size=4)
        assert system.n_parallel == 8
        assert system.search_entries(pts[:3], 0).shape == (3, 8, 8)
        served.append(system.search_all(pts[:3])[:2])
    served.append(DynamicGraph(pts, g).search_batch(pts[:3], 16, n_ctas=8)[:2])
    for ids, dists in served:
        assert ids.shape == (3, 16)
        for row, drow in zip(ids, dists):
            got = row[row >= 0]
            assert 0 < got.size <= 12 and np.unique(got).size == got.size
            assert (row[got.size:] == -1).all() and np.isinf(drow[got.size:]).all()
            assert np.isfinite(drow[:got.size]).all()


def test_single_vertex_graph():
    pts = np.ones((1, 4), dtype=np.float32)
    g = GraphIndex.from_neighbor_lists([np.empty(0, np.int32)])
    r = intra_cta_search(pts, g, pts[0], 1, 2, entries=0)
    assert r.ids.tolist() == [0]


def test_query_equal_to_base_point(ds, graph, entry):
    r = intra_cta_search(ds.base, graph, ds.base[17], 5, 48, entry,
                         metric=ds.metric)
    assert r.ids[0] == 17
    assert r.dists[0] == pytest.approx(0.0, abs=1e-5)


def test_multi_cta_more_ctas_than_needed(ds, graph):
    """16 CTAs on a small list: every CTA gets k slots, search stays sane."""
    r = multi_cta_search(ds.base, graph, ds.queries[0], 4, 16, 16,
                         metric=ds.metric)
    assert len(r.ids) == 4
    assert r.trace.n_ctas == 16


def test_zero_duration_jobs_complete():
    eng = DynamicBatchEngine(
        RTX_A6000, CostModel(RTX_A6000),
        DynamicBatchConfig(n_slots=2, n_parallel=1, k=4),
    )
    jobs = [QueryJob(i, 0.0, (0.0,), 16, 4) for i in range(4)]
    rep = eng.serve(jobs)
    assert len(rep.records) == 4
    assert all(r.complete_us >= r.dispatch_us for r in rep.records)


def test_pricing_no_traces_gives_no_jobs():
    assert price_jobs(CostModel(RTX_A6000), [], [], 10) == []


def test_static_partial_last_batch():
    eng = StaticBatchEngine(
        RTX_A6000, CostModel(RTX_A6000),
        StaticBatchConfig(batch_size=4, n_parallel=1, k=4, mem_per_block=2048),
    )
    jobs = [QueryJob(i, 0.0, (5.0,), 16, 4) for i in range(6)]  # 4 + 2
    rep = eng.serve(jobs)
    assert len(rep.records) == 6
    completes = sorted({round(r.complete_us, 6) for r in rep.records})
    assert len(completes) == 2  # two batches


def test_dynamic_sparse_arrivals_idle_wake():
    """Slots idle between widely-spaced arrivals; engine must not spin."""
    eng = DynamicBatchEngine(
        RTX_A6000, CostModel(RTX_A6000),
        DynamicBatchConfig(n_slots=2, n_parallel=1, k=4),
    )
    jobs = [QueryJob(i, i * 10_000.0, (5.0,), 16, 4) for i in range(4)]
    rep = eng.serve(jobs)
    assert len(rep.records) == 4
    for r in rep.records:
        assert r.dispatch_us >= r.arrival_us
        assert r.service_latency_us < 100.0  # no pathological queueing


def test_serve_single_query_1d(ds, graph):
    sys_ = ALGASSystem(ds.base, graph, metric=ds.metric, k=5, l_total=32,
                       batch_size=2, max_parallel=2)
    rep = sys_.serve(ds.queries[0])  # 1-D input
    assert rep.ids.shape == (1, 5)


@pytest.mark.parametrize(
    "name", ["algas", "cagra", "ivf", "sharded", "replicated", "dynamic"])
def test_query_batch_of_the_wrong_shape_fails_at_the_boundary(ds, graph, name):
    """An empty batch, or one narrower than the corpus, is refused with
    its shape and the corpus width (it used to fail inside a reshape or
    the pair kernel); an empty read batch is a legal stream epoch."""
    kw = dict(metric=ds.metric, k=5, l_total=32, batch_size=2)
    call = {
        "algas": lambda: ALGASSystem(ds.base, graph, **kw).search_all,
        "cagra": lambda: CAGRASystem(ds.base, graph, **kw).search_all,
        "ivf": lambda: IVFSystem(ds.base, nlist=8, metric=ds.metric, k=5).search_all,
        "sharded": lambda: ShardedServer(
            ds.base, partial(build_cagra, graph_degree=8), **kw).serve,
        "replicated": lambda: ReplicatedServer(ds.base, graph, **kw).serve,
        "dynamic": lambda: partial(DynamicGraph(ds.base, graph).search_batch, k=5),
    }[name]()
    with pytest.raises(ValueError, match=rf"\(2, 64\).*width {ds.dim}"):
        call(np.zeros((2, 64), np.float32))
    empty = np.empty((0, ds.dim), np.float32)
    if name == "dynamic":
        assert call(empty)[0].shape == (0, 5)
        return
    with pytest.raises(ValueError, match=rf"\(0, {ds.dim}\).*width {ds.dim}"):
        call(empty)


def test_static_huge_batch_size():
    """batch_size larger than the job count forms one partial batch."""
    eng = StaticBatchEngine(
        RTX_A6000, CostModel(RTX_A6000),
        StaticBatchConfig(batch_size=64, n_parallel=2, k=4, mem_per_block=2048),
    )
    jobs = [QueryJob(i, 0.0, (5.0, 6.0), 16, 4) for i in range(3)]
    rep = eng.serve(jobs)
    assert len(rep.records) == 3
    assert len({round(r.complete_us, 6) for r in rep.records}) == 1


def test_duplicate_query_ids_rejected():
    for engine in (
        DynamicBatchEngine(RTX_A6000, CostModel(RTX_A6000),
                           DynamicBatchConfig(n_slots=1, n_parallel=1, k=4)),
        StaticBatchEngine(RTX_A6000, CostModel(RTX_A6000),
                          StaticBatchConfig(batch_size=2, n_parallel=1, k=4,
                                            mem_per_block=2048)),
    ):
        jobs = [QueryJob(7, 0.0, (1.0,), 16, 4), QueryJob(7, 0.0, (1.0,), 16, 4)]
        with pytest.raises(ValueError):
            engine.serve(jobs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["queries", "base", "dynamic", "insert"])
def test_non_finite_input_fails_at_the_boundary(ds, graph, where, bad):
    """A NaN distance compares false against every bound, so the engine's
    bound filter would drop it silently; non-finite vectors are refused
    where they enter, naming the first offending row."""
    poisoned = (ds.queries[:4] if where in ("queries", "insert")
                else ds.base).copy()
    poisoned[2, 1] = bad
    with pytest.raises(ValueError, match=r"must be finite: row 2 holds"):
        if where == "queries":
            ALGASSystem(ds.base, graph, k=5, l_total=32, batch_size=4,
                        metric=ds.metric).search_all(poisoned)
        elif where == "base":
            ALGASSystem(poisoned, graph, k=5, l_total=32, batch_size=4,
                        metric=ds.metric)
        elif where == "dynamic":
            DynamicGraph(poisoned, graph, metric=ds.metric)
        else:
            DynamicGraph(ds.base, graph, metric=ds.metric).insert_batch(poisoned)


_BUILDERS = {
    "nsw": partial(build_nsw, m=4),
    "hnsw": partial(build_hnsw, m=4),
    "nsg": partial(build_nsg, out_degree=6),
    "cagra": partial(build_cagra, graph_degree=6),
}  # sized for the 64-point corpus below: a clean one builds under each


@pytest.mark.parametrize("bad", ["nan", "inf", "1-d", "3-d", "empty"])
@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_validate_points_at_the_boundary(name, bad):
    """A NaN row used to build a CAGRA graph silently, or surface as the
    engine's ``queries must be finite`` with a shuffled row index; a 1-D or
    3-D array died inside ``einsum``.  Every builder refuses them up front,
    naming ``points`` and the caller's first offending row."""
    pts = np.random.default_rng(4).normal(size=(64, 8)).astype(np.float32)
    if bad in ("nan", "inf"):
        pts[[35, 50], 3] = np.nan if bad == "nan" else -np.inf
        match = r"points must be finite: row 35 holds"
    else:
        pts = {"1-d": pts[0], "3-d": pts[None], "empty": pts[:0]}[bad]
        match = r"points must be a finite \(n, dim\) array"
    with pytest.raises(ValueError, match=match):
        _BUILDERS[name](pts)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_refuse_non_unit_rows_under_cosine(name):
    """Every cosine kernel computes ``1 - dot``, a distance only between
    unit rows; 300 rows of ``5·N(0, 1)`` used to build a cosine graph
    without a word.  Normalized, the same rows build."""
    pts = 5 * np.random.default_rng(5).normal(size=(300, 8)).astype(np.float32)
    with pytest.raises(ValueError, match=r"points must be unit-norm under "
                                         r"cosine: row 0 has norm"):
        _BUILDERS[name](pts, metric="cosine")
    _BUILDERS[name](normalize(pts), metric="cosine")
    _BUILDERS[name](pts)  # l2 has no such constraint

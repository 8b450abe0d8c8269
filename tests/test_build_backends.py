"""Structural-invariant, golden and oracle-parity suite for the graph builders.

``repro.graphs`` has one builder per family (the wave / array builders).
Each must produce a structurally sound graph (valid CSR, degree caps
respected, no self-loops, no duplicate neighbours), be deterministic under
a fixed seed, reproduce the CSR digests frozen in
``tests/golden/graphs.json`` at the last commit that still had a
``build_backend=`` switch, and stand up against the per-vertex reference
loops of ``tests/oracles.py``: ``build_cagra`` byte for byte, NSW / HNSW /
NSG within the recall gate.  The
occlusion prune they share equals its full-width oracle mask for mask.

(The file keeps its pre-PR-22 name so the test ids the floor list names
stay where they were; there is no backend left to select.)
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.data import metrics
from repro.data.metrics import pairwise_distances
from repro.graphs import (
    build_cagra,
    build_hnsw,
    build_nsg,
    build_nsw,
    occlusion_prune_mask,
)
from repro.graphs.utils import medoid
from repro.search.batched import batched_intra_cta_search

from .golden import make_graphs
from .oracles import (
    full_width_occlusion_prune_mask,
    scalar_build_cagra,
    scalar_build_hnsw,
    scalar_build_nsg,
    scalar_build_nsw,
)

N, DIM, BUILDERS = make_graphs.N, make_graphs.DIM, make_graphs.BUILDERS

#: name -> the one-vertex-at-a-time reference with the builder's signature
ORACLES = {
    "nsw": scalar_build_nsw,
    "hnsw": scalar_build_hnsw,
    "nsg": scalar_build_nsg,
}


@pytest.fixture(scope="module")
def points():
    return make_graphs.corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_graphs.FIXTURE.read_text())


def _build(points, name, seed=0):
    fn, kw, _cap = BUILDERS[name]
    return fn(points, **kw, seed=seed)


# ----------------------------------------------------------- invariants
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_structural_invariants(points, name):
    fn, kw, cap = BUILDERS[name]
    g = _build(points, name)
    # valid CSR
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert np.all(np.diff(g.indptr) >= 0)
    assert g.n_vertices == N
    assert g.indices.min() >= 0 and g.indices.max() < N
    # degree cap
    assert g.max_degree <= cap
    # no self-loops, no duplicate neighbours
    for v in range(N):
        nb = g.neighbors(v)
        assert not (nb == v).any(), f"self-loop at {v}"
        assert np.unique(nb).size == nb.size, f"duplicate neighbour at {v}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_is_bit_identical(points, name):
    g1 = _build(points, name, seed=3)
    g2 = _build(points, name, seed=3)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


def test_nsg_connected_from_medoid(points):
    g = _build(points, "nsg")
    nav = medoid(points, "l2")
    seen = np.zeros(N, dtype=bool)
    seen[nav] = True
    frontier = [nav]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    nxt.append(int(u))
        frontier = nxt
    assert seen.all(), f"{(~seen).sum()} vertices unreachable from the medoid"


# --------------------------------------------------------------- golden
def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, *_ in make_graphs.cases())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_reproduce_the_frozen_graphs(golden, name):
    """Every CSR digest frozen at ``9bc1209`` (then behind
    ``build_backend="vectorized"``): both metrics, two seeds."""
    for key, family, metric, kw in make_graphs.cases():
        if family == name:
            got = make_graphs.digest(
                make_graphs.build(family, make_graphs.corpus(metric), **kw))
            assert got == golden[key], key


# -------------------------------------------------------------- parity
def test_cagra_vectorized_is_bit_identical(points):
    gs = scalar_build_cagra(points, graph_degree=12)
    gv = build_cagra(points, graph_degree=12)
    assert np.array_equal(gs.indptr, gv.indptr)
    assert np.array_equal(gs.indices, gv.indices)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["ragged", "patch"]),
    metric=st.sampled_from(["l2", "cosine"]),
    rule=st.sampled_from(["mrng", "detour"]),
    block_rows=st.sampled_from([2, 3, 256]),
    with_forced=st.booleans(),
)
def test_occlusion_prune_mask_equals_full_width_scan(
    seed, layout, metric, rule, block_rows, with_forced
):
    """The width-ordered matmul prune against its full-width einsum body,
    mask for mask, on ragged pools (all-padding rows included) and on the
    delete repair's layout: ``S`` survivor slots (forced, distance 0),
    padding, then the distance-sorted inherited candidates.  The byte
    budget is set so that chunks hold ``block_rows`` rows."""
    rng = np.random.default_rng(seed)
    n, dim = 60, int(rng.choice([3, 8, 17]))
    pts = rng.standard_normal((n, dim)).astype(np.float32)
    if metric == "cosine":
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    B, S = int(rng.integers(1, 13)), 6
    K = S + int(rng.integers(1, 19)) if layout == "patch" else int(rng.integers(1, 25))
    pool_ids = np.full((B, K), -1, dtype=np.int64)
    pool_d = np.full((B, K), np.inf, dtype=np.float32)
    forced = np.zeros((B, K), dtype=bool)
    for r in range(B):
        if rng.random() < 0.2:
            continue  # all padding
        q = int(rng.integers(n))
        cand = rng.permutation(np.delete(np.arange(n), q))
        if layout == "patch":
            s = int(rng.integers(0, S + 1))
            m = int(rng.integers(0, K - S + 1))
            pool_ids[r, :s] = cand[:s]
            pool_d[r, :s] = 0.0
            forced[r, :s] = True
            cols = np.arange(S, S + m)
        else:
            m = int(rng.integers(0, K + 1))
            cols = np.arange(m)
            forced[r, :m] = rng.random(m) < 0.3
        ids = cand[S : S + m]
        d = pairwise_distances(pts[q][None, :], pts[ids], metric)[0]
        o = np.argsort(d, kind="stable")
        pool_ids[r, cols], pool_d[r, cols] = ids[o], d[o]
    kw = dict(metric=metric, rule=rule,
              forced=forced if with_forced or layout == "patch" else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BLOCK_BYTES", block_rows * 4 * K * dim)
        got = occlusion_prune_mask(pts, pool_ids, pool_d, **kw)
    assert np.array_equal(
        got, full_width_occlusion_prune_mask(pts, pool_ids, pool_d, **kw))


def _recall(points, graph, queries, gt, ef=48):
    entries = [np.array([0], dtype=np.int64)] * queries.shape[0]
    res = batched_intra_cta_search(
        points, graph, queries, 10, ef, entries, record_trace=False
    )
    hits = [
        len(set(r.ids.tolist()) & set(gt[i].tolist())) / 10
        for i, r in enumerate(res)
    ]
    return float(np.mean(hits))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_recall_parity_vectorized_vs_scalar(points, name):
    """Searching a wave-built graph must not trail the graph the
    one-vertex-at-a-time reference builds by more than the quality gate
    at identical search settings."""
    rng = np.random.default_rng(11)
    queries = rng.standard_normal((64, DIM)).astype(np.float32)
    gt = np.argsort(pairwise_distances(queries, points, "l2"), axis=1,
                    kind="stable")[:, :10]
    rs = _recall(points, ORACLES[name](points, **BUILDERS[name][1], seed=0),
                 queries, gt)
    rv = _recall(points, _build(points, name), queries, gt)
    assert rv >= rs - 0.05, f"{name}: wave {rv:.4f} vs scalar {rs:.4f}"


# ------------------------------------------------- the selector is gone
@pytest.mark.parametrize(
    "name,fn", [("nsw", build_nsw), ("hnsw", build_hnsw), ("nsg", build_nsg),
                ("cagra", build_cagra)]
)
def test_unknown_backend_rejected(points, name, fn):
    if name == "nsw":
        # the one compat keyword (benchmarks/e2e still passes "vectorized")
        fn(points[:64], build_backend="vectorized")
        with pytest.raises(ValueError, match=r"oracles\.py::scalar_build_nsw"):
            fn(points[:64], build_backend="scalar")
    else:
        with pytest.raises(TypeError, match="build_backend"):
            fn(points[:64], build_backend="vectorized")


def test_one_builder_per_family():
    assert sorted(n for n in graphs.__all__ if n.startswith("build_")) == [
        "build_cagra", "build_hnsw", "build_nsg", "build_nsw"]


# ------------------------------------------------------ tight degree caps
#: builds whose seed-block bridging evicted one bridge with the next
#: forever, or whose level multiplier divided by log(1)
TIGHT_CAPS = {
    "nsw-m1": "build_nsw(normal(300, 32), m=1, ef_construction=16)",
    "nsw-m1-cap8": "build_nsw(normal(300, 32), m=1, ef_construction=16, max_degree=8)",
    "nsw-m2-300x32": "build_nsw(normal(300, 32), m=2, ef_construction=16)",
    "nsw-m2-1000x8": "build_nsw(normal(1000, 8), m=2, ef_construction=16)",
    "nsw-m4-cap3": "build_nsw(normal(300, 32), m=4, ef_construction=16, max_degree=3)",
    "nsw-m4-cap4": "build_nsw(normal(300, 32), m=4, ef_construction=16, max_degree=4)",
    "hnsw-m1": "build_hnsw(normal(200, 8), m=1, ef_construction=16)",
    "hnsw-m2-200x8": "build_hnsw(normal(200, 8), m=2, ef_construction=16)",
}


@pytest.mark.parametrize("case", sorted(TIGHT_CAPS))
def test_tight_degree_cap_returns_or_raises(case):
    """Each build runs in a child with a deadline: it must return a graph
    or raise a ``ValueError`` naming ``m``, never spin or divide by zero."""
    code = (
        "import numpy as np\n"
        "from repro.graphs import build_hnsw, build_nsw\n"
        "def normal(n, dim):\n"
        "    return np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)\n"
        "try:\n"
        f"    {TIGHT_CAPS[case]}\n"
        "    print('built')\n"
        "except ValueError as e:\n"
        "    print('ValueError:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    out = run.stdout.strip()
    assert out == "built" or (out.startswith("ValueError:") and "m=" in out), out

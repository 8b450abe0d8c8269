"""Unit tests for streaming index updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.graphs import DynamicGraph, build_cagra, dynamic


PTS = latent_mixture(500, 16, intrinsic_dim=8, seed=21)
GRAPH = build_cagra(PTS, graph_degree=10)


def fresh() -> DynamicGraph:
    """500 live points; k=8 reads share the insert beam (ef 48 >= 13)."""
    return DynamicGraph(PTS, GRAPH, max_degree=12, ef=48)


@pytest.fixture()
def dyn():
    return fresh(), PTS


def test_search_matches_static(dyn):
    d, pts = dyn
    gt, _ = exact_knn(pts[:10], pts, 5)
    found = np.stack([d.search(q, 5)[0] for q in pts[:10]])
    assert recall(found, gt) > 0.85


def test_insert_becomes_findable(dyn):
    d, pts = dyn
    rng = np.random.default_rng(0)
    new_pt = pts[7] + rng.normal(0, 1e-4, pts.shape[1]).astype(np.float32)
    vid = d.insert(new_pt)
    assert vid == 500 and d.n_alive == 501
    ids, dist = d.search(new_pt, 3)
    assert vid in ids  # the fresh point is its own nearest neighbour


def test_delete_removed_from_results(dyn):
    d, pts = dyn
    target = int(d.search(pts[3], 1)[0][0])
    d.delete(target)
    assert d.n_alive == 499
    ids, _ = d.search(pts[3], 10)
    assert target not in ids


def test_delete_preserves_recall(dyn):
    """After deleting 10% of points, recall against the reduced ground
    truth stays healthy (the patch rule keeps the graph navigable)."""
    d, pts = dyn
    rng = np.random.default_rng(1)
    victims = rng.choice(500, size=50, replace=False)
    for v in victims:
        d.delete(int(v))
    alive = np.setdiff1d(np.arange(500), victims)
    gt, _ = exact_knn(pts[:10], pts[alive], 5)
    found = []
    for q in pts[:10]:
        ids, _ = d.search(q, 5)
        # map dynamic ids into the reduced id space
        remap = {int(a): i for i, a in enumerate(alive)}
        found.append([remap.get(int(i), -1) for i in ids])
    assert recall(np.array(found), gt) > 0.75


def test_insert_after_delete_reuses_structure(dyn):
    d, pts = dyn
    d.delete(0)
    vid = d.insert(pts[0])
    ids, _ = d.search(pts[0], 1)
    assert ids[0] == vid


def test_freeze_compacts(dyn):
    d, pts = dyn
    d.delete(5)
    d.insert(pts[5])
    fpts, g, orig = d.freeze()
    assert fpts.shape[0] == 500 == g.n_vertices
    assert 5 not in orig
    assert orig[-1] == 500  # the inserted point kept the next dynamic id
    # exported graph only references live compact ids
    assert g.indices.max() < 500


def test_delete_everything_then_insert():
    pts = latent_mixture(20, 8, intrinsic_dim=4, seed=2)
    g = build_cagra(pts, graph_degree=4)
    d = DynamicGraph(pts, g, max_degree=6)
    for v in range(20):
        d.delete(v)
    assert d.n_alive == 0
    ids, _ = d.search(pts[0], 3)
    assert ids.size == 0
    vid = d.insert(pts[0])
    assert d.search(pts[0], 1)[0][0] == vid


def test_validation(dyn):
    d, _ = dyn
    with pytest.raises(IndexError):
        d.delete(10_000)
    d.delete(7)
    with pytest.raises(ValueError):
        d.delete(7)


def test_link_select_validates():
    pts = latent_mixture(100, 16, intrinsic_dim=8, seed=3)
    g = build_cagra(pts, graph_degree=8)
    with pytest.raises(ValueError, match="link_select"):
        DynamicGraph(pts, g, link_select="nearest")
    assert DynamicGraph(pts, g, link_select="closest").link_select == "closest"
    assert DynamicGraph(pts, g).link_select == "occlusion"


def test_occlusion_linking_recall_under_churn():
    """Regression for the PR 8 headroom: occlusion-diverse fresh-row links
    must hold recall at least as well as closest-only linking after a
    sustained insert/delete churn (closest-only clusters edges and strands
    whole regions once their hub neighbours die)."""
    rng = np.random.default_rng(11)
    pts = latent_mixture(600, 24, intrinsic_dim=10, seed=11)
    seed_pts, stream = pts[:300], pts[300:]
    g = build_cagra(seed_pts, graph_degree=8)

    recalls = {}
    for select in ("closest", "occlusion"):
        d = DynamicGraph(seed_pts, g, max_degree=8, ef=32, link_select=select)
        churn_rng = np.random.default_rng(7)
        for lo in range(0, len(stream), 50):
            d.insert_batch(stream[lo : lo + 50])
            alive = d.alive_ids()
            kill = churn_rng.choice(alive, size=25, replace=False)
            d.delete_batch(kill)
            d.compact()
        alive = d.alive_ids()
        live_pts = d.points_matrix()[alive]
        queries = pts[::23]
        gt, _ = exact_knn(queries, live_pts, 5)
        found = np.stack([
            np.searchsorted(alive, d.search(q, 5)[0]) for q in queries
        ])
        recalls[select] = recall(found, gt)
    # Occlusion linking must not lose to closest-only, and must stay
    # serviceable in absolute terms after ~12 churn waves.
    assert recalls["occlusion"] >= recalls["closest"] - 0.01
    assert recalls["occlusion"] > 0.8


# ------------------------------------------- fused read + insert searches
QUERIES = latent_mixture(12, 16, intrinsic_dim=8, seed=22)
WAVE = latent_mixture(20, 16, intrinsic_dim=8, seed=23)


def _state(d):
    n = d.n_total
    return d._adj[:n].copy(), d._counts[:n].copy(), d._alive[:n].copy()


def _epoch(monkeypatch, wave, pending, search_kw=None, between=None):
    """search_batch (optionally carrying ``pending``), ``between(d)``, then
    insert_batch(wave) on a fresh graph: the read results, the final
    adjacency state and how many insertion searches ran on their own."""
    calls = []
    real = dynamic._prefix_search

    def spy(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(dynamic, "_prefix_search", spy)
    d = fresh()
    out = d.search_batch(QUERIES, 8, record_trace=True,
                         pending_inserts=pending, **(search_kw or {}))
    if between is not None:
        between(d)
    d.insert_batch(wave)
    return out, _state(d), len(calls)


def _assert_same(a, b):
    (ids_a, d_a, tr_a), state_a = a
    (ids_b, d_b, tr_b), state_b = b
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(d_a, d_b)
    assert tr_a == tr_b
    for x, y in zip(state_a, state_b):
        assert np.array_equal(x, y)


def test_fused_epoch_equals_the_two_run_epoch(monkeypatch):
    """Reads carrying the next wave return the plain reads' ids, distances
    and trace, and the insert that follows links from the fused pools —
    no search of its own — into the plain path's adjacency."""
    *plain, n_plain = _epoch(monkeypatch, WAVE, None)
    *fused, n_fused = _epoch(monkeypatch, WAVE, WAVE)
    assert (n_plain, n_fused) == (1, 0)
    _assert_same(plain, fused)
    ids, _, tr = fused[0]
    assert ids.shape == (QUERIES.shape[0], 8) and len(tr) == QUERIES.shape[0]


@pytest.mark.parametrize("case", [
    "delete_between", "other_points", "int8", "explicit_l", "oversize_wave",
])
def test_fused_epoch_falls_back_to_its_own_insert_search(monkeypatch, case):
    """Every condition that voids the fused pools leaves the insert to
    search on its own, exactly as without ``pending_inserts``."""
    wave, pending, kw, between = WAVE, WAVE, None, None
    if case == "delete_between":
        def between(d):
            d.delete_batch([3, 4])
    elif case == "other_points":
        pending = WAVE[::-1]
    elif case == "int8":
        kw = dict(precision="int8")
    elif case == "explicit_l":
        kw = dict(l=24)
    else:  # one more point than the first sub-wave (max(n_alive, 256))
        wave = pending = latent_mixture(501, 16, intrinsic_dim=8, seed=24)
    *plain, n_plain = _epoch(monkeypatch, wave, None, kw, between)
    *fused, n_fused = _epoch(monkeypatch, wave, pending, kw, between)
    assert n_fused == n_plain == (2 if case == "oversize_wave" else 1)
    _assert_same(plain, fused)


def test_pending_inserts_validated():
    d = fresh()
    with pytest.raises(ValueError, match="dimension"):
        d.search_batch(QUERIES, 8, pending_inserts=np.zeros((2, 5), np.float32))
    bad = WAVE.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="inserted points"):
        d.search_batch(QUERIES, 8, pending_inserts=bad)


SMALL = latent_mixture(40, 16, intrinsic_dim=8, seed=23)
SMALL_GRAPH = build_cagra(SMALL, graph_degree=6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "compact"]),
                          st.integers(1, 60), st.floats(0.1, 30.0)),
                max_size=6),
       st.integers(0, 2**31 - 1))
def test_kept_norms_equal_a_fresh_einsum(waves, seed):
    """The squared norms kept on the graph — extended per insert wave, grown
    with the capacity, untouched by deletes and compaction — equal one
    einsum over every staged row, bit for bit."""
    rng = np.random.default_rng(seed)
    d = DynamicGraph(SMALL, SMALL_GRAPH, max_degree=8, ef=16)
    for kind, size, scale in waves:
        if kind == "insert":
            d.insert_batch(rng.normal(0.0, scale, (size, 16)).astype(np.float32))
        elif kind == "delete" and d.n_alive > 1:
            alive = d.alive_ids()
            d.delete_batch(rng.choice(alive, min(size, alive.size - 1),
                                      replace=False))
        elif kind == "compact":
            d.compact()
    pts = d._pts[: d.n_total]
    want = np.einsum("ij,ij->i", pts, pts)
    assert d._sqnorms.shape[0] == d._pts.shape[0]
    assert d._sqnorms[: d.n_total].tobytes() == want.tobytes()

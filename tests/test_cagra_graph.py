"""Unit tests for CAGRA graph construction."""

import numpy as np
import pytest

from repro import graphs
from repro.data.synthetic import latent_mixture
from repro.graphs.build_batched import occlusion_prune_mask
from repro.graphs.cagra import build_cagra
from repro.graphs.knn import exact_knn_matrix
from repro.graphs.utils import graph_stats


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(400, 24, intrinsic_dim=10, seed=1)


def test_fixed_out_degree(pts):
    g = build_cagra(pts, graph_degree=8)
    assert g.kind == "cagra"
    assert (g.degrees == 8).all()


def test_no_self_loops_no_duplicates(pts):
    g = build_cagra(pts, graph_degree=8)
    for v in range(g.n_vertices):
        nb = g.neighbors(v)
        assert v not in nb
        assert len(set(nb.tolist())) == len(nb)


def _detour_mask(pts_, k):
    cand_ids, cand_d = exact_knn_matrix(pts_, k)
    keep = occlusion_prune_mask(pts_, cand_ids.astype(np.int64), cand_d,
                                rule="detour")
    return cand_ids, keep


def test_prune_detours_semantics():
    """CAGRA's detour rule, ``occlusion_prune_mask(rule="detour")``: an
    edge goes when any earlier-ranked candidate, kept or not, is closer to
    its target than the source is."""
    pts_ = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.1, 0.1], [5.0, 5.0]], dtype=np.float32
    )
    cand_ids, keep = _detour_mask(pts_, 3)
    # For point 0: candidates sorted [1, 2, 3]; edge 0->2 is detourable
    # through 1 (d(1,2) < d(0,2)).
    row = cand_ids[0].tolist()
    assert keep[0][0]  # rank-0 edge always kept
    assert not keep[0][row.index(2)]


def test_rank0_always_kept(pts):
    _, keep = _detour_mask(pts, 8)
    assert keep[:, 0].all()


def test_reverse_edges_present(pts):
    g = build_cagra(pts, graph_degree=8)
    fwd = {(u, int(v)) for u in range(g.n_vertices) for v in g.neighbors(u)}
    rev = sum((v, u) in fwd for u, v in fwd)
    assert rev / len(fwd) > 0.3  # half the budget is reverse edges


def test_searchable_quality(pts):
    from repro.data.groundtruth import exact_knn, recall
    from .reference import multi_cta_search

    g = build_cagra(pts, graph_degree=8)
    rng = np.random.default_rng(0)
    q = pts[:10] + rng.normal(0, 0.01, (10, pts.shape[1])).astype(np.float32)
    gt, _ = exact_knn(q, pts, 5)
    found = np.stack(
        [multi_cta_search(pts, g, qq, 5, 48, 2).ids[:5] for qq in q]
    )
    assert recall(found, gt) > 0.8


def test_validates(pts):
    with pytest.raises(ValueError):
        build_cagra(pts, graph_degree=0)
    with pytest.raises(ValueError):
        build_cagra(pts[:5], graph_degree=8)


def test_builds_on_the_exact_knn_only(pts):
    """The intermediate graph is the exact kNN of degree 2 x graph_degree:
    NN-descent and the intermediate degree are gone, and ``seed`` moves no
    bit."""
    for kw in (dict(use_nn_descent=True), dict(intermediate_degree=16)):
        with pytest.raises(TypeError):
            build_cagra(pts, graph_degree=8, **kw)
    a, b = build_cagra(pts, graph_degree=8), build_cagra(pts, graph_degree=8, seed=2)
    assert np.array_equal(a.indices, b.indices)
    assert "nn_descent_matrix" not in graphs.__all__

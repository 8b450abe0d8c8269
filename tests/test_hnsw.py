"""Unit tests for the HNSW index."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.graphs.hnsw import HNSWIndex, build_hnsw
from repro.graphs.utils import graph_stats


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(350, 24, intrinsic_dim=10, seed=5)


@pytest.fixture(scope="module")
def index(pts):
    return HNSWIndex(pts, m=6, ef_construction=32, seed=0)


def test_layer_structure(index, pts):
    # Geometric levels: layer population shrinks as we go up.
    assert index.n_layers >= 2
    sizes = [len(layer.adj) for layer in index.layers]
    assert sizes[0] == pts.shape[0]
    assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
    # entry point lives on the top layer
    assert index.levels[index.entry] == index.n_layers - 1


def test_degree_caps(index):
    for lc, layer in enumerate(index.layers):
        cap = index.m0 if lc == 0 else index.m
        for v, nbrs in layer.adj.items():
            assert len(nbrs) <= cap
            assert v not in nbrs


def test_hierarchical_search_recall(index, pts):
    rng = np.random.default_rng(1)
    q = pts[:20] + rng.normal(0, 0.01, (20, pts.shape[1])).astype(np.float32)
    gt, _ = exact_knn(q, pts, 5)
    found = np.stack([index.search(qq, 5, ef=48)[0] for qq in q])
    assert recall(found, gt) > 0.85


def test_search_sorted_output(index, pts):
    ids, d = index.search(pts[7], 6)
    assert (np.diff(d) >= -1e-6).all()
    assert ids[0] == 7  # the query is a base point; its own id is closest


def test_layer0_export_searchable(pts):
    g = build_hnsw(pts, m=6, ef_construction=32, seed=0)
    assert g.kind == "hnsw-l0"
    st = graph_stats(g)
    assert st.n_vertices == pts.shape[0]
    assert st.n_weak_components <= 2
    from repro.graphs.utils import medoid
    from repro.reference import intra_cta_search

    gt, _ = exact_knn(pts[:10], pts, 5)
    ep = medoid(pts)
    found = np.stack(
        [intra_cta_search(pts, g, q, 5, 48, ep).ids[:5] for q in pts[:10]]
    )
    assert recall(found, gt) > 0.8


def test_deterministic(pts):
    a = HNSWIndex(pts[:100], m=4, ef_construction=16, seed=3)
    b = HNSWIndex(pts[:100], m=4, ef_construction=16, seed=3)
    ga, gb = a.to_graph_index(), b.to_graph_index()
    assert np.array_equal(ga.indices, gb.indices)


def test_validates(pts):
    with pytest.raises(ValueError):
        HNSWIndex(pts, m=0)
    with pytest.raises(ValueError):
        HNSWIndex(pts, m=8, ef_construction=4)
    with pytest.raises(ValueError):
        HNSWIndex(np.empty((0, 4), dtype=np.float32))
    idx = HNSWIndex(pts[:50], m=4, ef_construction=16)
    with pytest.raises(ValueError):
        idx.search(pts[0], 0)

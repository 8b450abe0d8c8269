"""Unit tests for the HNSW builder and its hierarchical reference."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.graphs.hnsw import build_hnsw
from repro.graphs.utils import graph_stats

from .oracles import ScalarHNSW


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(350, 24, intrinsic_dim=10, seed=5)


@pytest.fixture(scope="module")
def index(pts):
    return ScalarHNSW(pts, m=6, ef_construction=32, seed=0)


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


def test_layer0_export_searchable(pts):
    g = build_hnsw(pts, m=6, ef_construction=32, seed=0)
    assert g.kind == "hnsw-l0"
    st = graph_stats(g)
    assert st.n_vertices == pts.shape[0]
    assert st.n_weak_components <= 2
    from repro.graphs.utils import medoid

    from .reference import intra_cta_search

    gt, _ = exact_knn(pts[:10], pts, 5)
    ep = medoid(pts)
    found = np.stack(
        [intra_cta_search(pts, g, q, 5, 48, ep).ids[:5] for q in pts[:10]]
    )
    assert recall(found, gt) > 0.8


def test_deterministic(pts):
    a = ScalarHNSW(pts[:100], m=4, ef_construction=16, seed=3)
    b = ScalarHNSW(pts[:100], m=4, ef_construction=16, seed=3)
    ga, gb = a.to_graph_index(), b.to_graph_index()
    assert np.array_equal(ga.indices, gb.indices)


def test_validates(pts):
    with pytest.raises(ValueError):
        build_hnsw(pts, m=0)
    with pytest.raises(ValueError, match="m=1"):
        build_hnsw(pts, m=1, ef_construction=16)
    with pytest.raises(ValueError):
        build_hnsw(pts, m=8, ef_construction=4)
    with pytest.raises(ValueError):
        build_hnsw(np.empty((0, 4), dtype=np.float32))

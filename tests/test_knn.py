"""Unit tests for kNN graph builders."""

import numpy as np

from repro.data.groundtruth import exact_knn
from repro.graphs.knn import exact_knn_graph, exact_knn_matrix


def test_exact_knn_matrix_excludes_self():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 6)).astype(np.float32)
    nbrs, d = exact_knn_matrix(pts, 5)
    assert nbrs.shape == (30, 5)
    for i in range(30):
        assert i not in nbrs[i]
    assert (np.diff(d, axis=1) >= -1e-6).all()


def test_exact_knn_matrix_matches_groundtruth():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 4)).astype(np.float32)
    nbrs, _ = exact_knn_matrix(pts, 3)
    # ground truth including self, then strip self
    gt, _ = exact_knn(pts, pts, 4)
    for i in range(40):
        ref = [x for x in gt[i] if x != i][:3]
        assert set(nbrs[i]) == set(ref)


def test_exact_knn_graph_fixed_degree():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(25, 3)).astype(np.float32)
    g = exact_knn_graph(pts, 4)
    assert g.kind == "knn"
    assert (g.degrees == 4).all()

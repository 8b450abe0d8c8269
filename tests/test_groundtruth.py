"""Unit tests for exact kNN ground truth and recall."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import metrics
from repro.data.groundtruth import exact_knn, recall, recall_per_query

from .oracles import loop_recall_per_query


def test_exact_knn_sorted_and_correct():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 8)).astype(np.float32)
    q = rng.normal(size=(5, 8)).astype(np.float32)
    ids, d = exact_knn(q, pts, 10)
    assert ids.shape == (5, 10) and d.shape == (5, 10)
    assert (np.diff(d, axis=1) >= -1e-6).all()
    # brute force check for the first query
    ref = (((pts - q[0]) ** 2).sum(1)).argsort()[:10]
    assert set(ids[0]) == set(ref)


def _block_rows(monkeypatch, rows, n_points):
    """Size the byte budget so that kNN panels hold ``rows`` query rows."""
    monkeypatch.setattr(metrics, "BLOCK_BYTES", rows * 4 * n_points,
                        raising=False)


def test_exact_knn_blocked_matches_unblocked(monkeypatch):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 4)).astype(np.float32)
    q = rng.normal(size=(13, 4)).astype(np.float32)
    _block_rows(monkeypatch, 4, len(pts))
    a, _ = exact_knn(q, pts, 5)
    _block_rows(monkeypatch, 100, len(pts))
    b, _ = exact_knn(q, pts, 5)
    assert np.array_equal(a, b)


def test_exact_knn_distances_do_not_depend_on_the_blocking(monkeypatch):
    """513 queries in 512-row blocks used to leave row 512 alone in a
    one-row GEMM, which BLAS runs as a matrix-vector product with other
    rounding; a one-row tail now joins the block before it, so every row's
    distances are those of any multi-row block."""
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(1024, 32)).astype(np.float32)
    q = rng.normal(size=(513, 32)).astype(np.float32)
    _, pair = exact_knn(q[511:], pts, 10)  # one two-row block
    for rows in (512, 100, 2):
        _block_rows(monkeypatch, rows, len(pts))
        ids, d = exact_knn(q, pts, 10)
        assert d[511:].tobytes() == pair.tobytes(), rows
        if rows == 512:
            want = ids, d
        assert ids.tobytes() == want[0].tobytes()
        assert d.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("bad", ["nan", "width"])
def test_exact_knn_validates_the_queries(bad):
    """All-NaN queries used to get neighbour ids, and a width mismatch died
    inside matmul's gufunc message."""
    pts = np.random.default_rng(3).normal(size=(20, 4)).astype(np.float32)
    if bad == "nan":
        q = np.full((3, 4), np.nan, dtype=np.float32)
        match = r"queries must be finite: row 0 holds"
    else:
        q = pts[:3, :3]
        match = r"queries \(3, 3\) and points \(20, 4\)"
    with pytest.raises(ValueError, match=match):
        exact_knn(q, pts, 5)


def test_exact_knn_k_equals_n():
    pts = np.eye(4, dtype=np.float32)
    ids, _ = exact_knn(pts[:1], pts, 4)
    assert sorted(ids[0]) == [0, 1, 2, 3]


def test_exact_knn_bad_k():
    pts = np.ones((3, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        exact_knn(pts[:1], pts, 0)
    with pytest.raises(ValueError):
        exact_knn(pts[:1], pts, 4)


def test_recall_perfect_and_zero():
    truth = np.array([[1, 2, 3], [4, 5, 6]])
    assert recall(truth, truth) == 1.0
    assert recall(np.full_like(truth, 99), truth) == 0.0


def test_recall_partial_and_padding():
    truth = np.array([[1, 2, 3, 4]])
    found = np.array([[1, 2, -1, -1]])
    assert recall(found, truth) == pytest.approx(0.5)


def test_recall_order_independent():
    truth = np.array([[1, 2, 3]])
    assert recall(np.array([[3, 1, 2]]), truth) == 1.0


def test_recall_per_query_shape_checks():
    with pytest.raises(ValueError):
        recall_per_query(np.ones(3), np.ones((1, 3)))
    with pytest.raises(ValueError):
        recall_per_query(np.ones((2, 3)), np.ones((1, 3)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 8), st.integers(1, 8),
       st.integers(0, 2**31 - 1))
def test_recall_per_query_equals_the_row_loop(n_rows, width, k, seed):
    """The one-sort recall against the ``np.intersect1d`` loop on rows with
    -1 padding, duplicate ids in ``found`` (and ``truth``), and ids absent
    from ``truth``, drawn from a small id range so collisions are common."""
    rng = np.random.default_rng(seed)
    found = rng.integers(-1, 6, size=(n_rows, width))
    truth = rng.integers(0, 6, size=(n_rows, k))
    got = recall_per_query(found, truth)
    want = loop_recall_per_query(found, truth)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_recall_per_query_counts_distinct_hits():
    found = np.array([[3, 3, -1, 7], [-1, -1, -1, -1]])
    truth = np.array([[3, 5, 3, 9], [0, 1, 2, 3]])
    assert recall_per_query(found, truth).tolist() == [0.25, 0.0]

"""Unit tests for repro.data.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import metrics
from repro.data.metrics import (
    distance_one,
    normalize,
    pairwise_distances,
    query_distances,
    row_blocks,
)


def test_l2_matches_naive():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 16)), rng.normal(size=(7, 16))
    d = pairwise_distances(a, b, "l2")
    naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    assert np.allclose(d, naive, atol=1e-3)


def test_cosine_on_normalized_rows():
    rng = np.random.default_rng(1)
    a = normalize(rng.normal(size=(4, 8)))
    b = normalize(rng.normal(size=(6, 8)))
    d = pairwise_distances(a, b, "cosine")
    cos = a @ b.T
    assert np.allclose(d, 1 - cos, atol=1e-5)
    assert d.min() >= -1e-5


def test_query_distances_matches_pairwise():
    rng = np.random.default_rng(2)
    q = rng.normal(size=12).astype(np.float32)
    p = rng.normal(size=(30, 12)).astype(np.float32)
    assert np.allclose(query_distances(q, p), pairwise_distances(q, p)[0], atol=1e-4)


def test_distance_one_consistency():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=10), rng.normal(size=10)
    assert distance_one(a, b, "l2") == pytest.approx(float(((a - b) ** 2).sum()), rel=1e-4)
    an, bn = a / np.linalg.norm(a), b / np.linalg.norm(b)
    assert distance_one(a, b, "cosine") == pytest.approx(1 - float(an @ bn), abs=1e-5)


def test_normalize_unit_rows_and_zero_safety():
    x = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    n = normalize(x)
    assert np.allclose(np.linalg.norm(n[0]), 1.0)
    assert np.all(np.isfinite(n))


def test_normalize_1d():
    v = normalize(np.array([0.0, 2.0]))
    assert np.allclose(v, [0.0, 1.0])


def test_l2_clamps_negative_cancellation():
    p = np.full((3, 4), 1e3, dtype=np.float32)
    d = pairwise_distances(p, p, "l2")
    assert (d >= 0).all()


def test_unknown_metric_raises():
    with pytest.raises(ValueError):
        pairwise_distances(np.ones((1, 2)), np.ones((1, 2)), "hamming")
    with pytest.raises(ValueError):
        query_distances(np.ones(2), np.ones((1, 2)), "dot")


def test_row_blocks_cover_the_rows_and_fold_a_one_row_tail(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 400)
    assert row_blocks(10, 100) == [(0, 4), (4, 8), (8, 10)]
    assert row_blocks(9, 100) == [(0, 4), (4, 9)]  # no one-row block
    assert row_blocks(1, 100) == [(0, 1)]
    assert row_blocks(0, 100) == []
    assert row_blocks(5, 10_000) == [(0, 2), (2, 5)]  # at least two rows


def _temporaries_pairwise(q, p, metric):
    """The expression ``pairwise_distances`` evaluated with a temporary per
    operator: ``(qq + pp) - 2·G``, clamped, then copied to float32."""
    if metric == "l2":
        qq = np.einsum("ij,ij->i", q, q)[:, None]
        pp = np.einsum("ij,ij->i", p, p)[None, :]
        d = qq + pp - 2.0 * (q @ p.T)
        np.maximum(d, 0.0, out=d)
        return d.astype(np.float32)
    return (1.0 - q @ p.T).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 70),
       st.sampled_from(["l2", "cosine"]), st.integers(0, 2**31 - 1))
def test_pairwise_distances_keeps_the_evaluation_order(nq, n_pts, dim, metric,
                                                       seed):
    """The in-place rewrite equals the temporaries' expression bit for bit,
    with or without kept point norms."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(nq, dim)).astype(np.float32)
    p = rng.normal(size=(n_pts, dim)).astype(np.float32)
    if metric == "cosine":
        q, p = normalize(q), normalize(p)
    want = _temporaries_pairwise(q, p, metric)
    got = pairwise_distances(q, p, metric)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    norms = np.einsum("ij,ij->i", p, p)
    assert pairwise_distances(q, p, metric, norms).tobytes() == want.tobytes()

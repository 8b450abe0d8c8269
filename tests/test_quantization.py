"""Unit tests for the SQ8 scalar quantizer."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.search.precision import ScalarQuantizer


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(1200, 32, intrinsic_dim=10, seed=9)


def test_sq8_roundtrip_accuracy(pts):
    sq = ScalarQuantizer().fit(pts)
    codes = sq.encode(pts[:100])
    assert codes.dtype == np.uint8
    rec = sq.decode(codes)
    # per-dimension error bounded by half a quantization step
    step = sq.scale
    assert (np.abs(rec - pts[:100]) <= step / 2 + 1e-5).all()


def test_sq8_recall_near_lossless(pts):
    sq = ScalarQuantizer().fit(pts)
    rec_pts = sq.decode(sq.encode(pts))
    gt, _ = exact_knn(pts[:20], pts, 5)
    approx, _ = exact_knn(pts[:20], rec_pts, 5)
    assert recall(approx, gt) > 0.9


def test_sq8_constant_dimension(pts):
    v = pts[:50].copy()
    v[:, 0] = 3.14  # zero-span dimension
    sq = ScalarQuantizer().fit(v)
    rec = sq.decode(sq.encode(v))
    assert np.allclose(rec[:, 0], 3.14, atol=1e-5)


def test_sq8_validates():
    sq = ScalarQuantizer()
    with pytest.raises(RuntimeError):
        sq.encode(np.ones((2, 4), np.float32))
    with pytest.raises(ValueError):
        sq.fit(np.empty((0, 4), np.float32))


# ------------------------------------------------- traversal-substrate ties
# Direct bounds/ordering coverage backing the quantized traversal path
# (repro.search.precision builds its kernels on these primitives).


def test_sq8_error_bound_scales_with_span(pts):
    """SQ8 worst-case round-trip error is span/510 per dimension, so total
    squared error is bounded by sum((span/510)^2) — check with margin."""
    sq = ScalarQuantizer().fit(pts)
    rec = sq.decode(sq.encode(pts[:300]))
    worst = ((sq.scale / 2) ** 2).sum()
    assert (((rec - pts[:300]) ** 2).sum(1) <= worst * 1.01 + 1e-6).all()

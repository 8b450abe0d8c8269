"""Unit tests for the quantizers (PQ, SQ8) and IVF-PQ."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.search.ivf import IVFPQIndex
from repro.search.precision import ProductQuantizer, ScalarQuantizer


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(1200, 32, intrinsic_dim=10, seed=9)


@pytest.fixture(scope="module")
def pq(pts):
    return ProductQuantizer(m=4, ks=64, seed=0).fit(pts)


def test_codes_shape_dtype(pq, pts):
    codes = pq.encode(pts[:50])
    assert codes.shape == (50, 4)
    assert codes.dtype == np.uint8
    assert codes.max() < 64


def test_decode_reduces_error_vs_random(pq, pts):
    err = pq.quantization_error(pts[:200])
    # versus quantizing with shuffled codes
    codes = pq.encode(pts[:200])
    rng = np.random.default_rng(0)
    bad = pq.decode(rng.permutation(codes, axis=0))
    bad_err = float(((pts[:200] - bad) ** 2).sum(1).mean())
    assert err < 0.25 * bad_err
    assert err > 0  # lossy


def test_adc_approximates_exact(pq, pts):
    q = pts[0]
    table = pq.adc_table(q)
    codes = pq.encode(pts[1:201])
    approx = pq.adc_distances(table, codes)
    exact = ((pts[1:201] - q) ** 2).sum(1)
    # rank correlation must be strongly positive
    from scipy.stats import spearmanr

    rho = spearmanr(approx, exact).statistic
    assert rho > 0.8
    # ADC equals exact distance to the *reconstruction*
    rec = pq.decode(codes)
    ref = ((rec - q) ** 2).sum(1)
    assert np.allclose(approx, ref, rtol=1e-4, atol=1e-4)


def test_dim_divisibility():
    with pytest.raises(ValueError):
        ProductQuantizer(m=5).fit(np.ones((10, 32), np.float32))


def test_refit_trains_the_requested_codebook_size(pts):
    """A fit on fewer rows than ``ks`` trains one centroid per row; a refit
    on enough rows trains the requested ``ks`` again."""
    pq = ProductQuantizer(m=4, ks=64, seed=0).fit(pts[:20])
    assert pq.codebooks.shape == (4, 20, 8) and pq.ks == 20
    pq.fit(pts[:500])
    assert pq.codebooks.shape == (4, 64, 8) and pq.ks == 64
    assert pq.encode(pts[:500]).max() >= 20
    # m=None resolves per fit from the fitted dimension
    auto = ProductQuantizer(m=None, ks=16).fit(pts[:100])
    assert auto.m == 4 and auto.codebooks.shape == (4, 16, 8)


def test_unfitted_raises():
    pq = ProductQuantizer(m=2)
    with pytest.raises(RuntimeError):
        pq.encode(np.ones((2, 8), np.float32))


def test_param_validation():
    with pytest.raises(ValueError):
        ProductQuantizer(m=0)
    with pytest.raises(ValueError):
        ProductQuantizer(ks=1)
    with pytest.raises(ValueError):
        ProductQuantizer(ks=500)


def test_ivfpq_recall_with_rerank(pts):
    idx = IVFPQIndex(pts, nlist=16, m=4, ks=64, seed=0)
    gt, _ = exact_knn(pts[:20], pts, 5)
    no_rr, rr = [], []
    for q in pts[:20]:
        no_rr.append(idx.search(q, 5, nprobe=8).ids[:5])
        rr.append(idx.search(q, 5, nprobe=8, rerank=50).ids[:5])
    rec_no = recall(np.stack(no_rr), gt)
    rec_rr = recall(np.stack(rr), gt)
    assert rec_rr >= rec_no
    assert rec_rr > 0.85  # rerank recovers quantization loss


def test_ivfpq_trace_reflects_pq_scan(pts):
    idx = IVFPQIndex(pts, nlist=16, m=4, ks=64, seed=0)
    r = idx.search(pts[0], 5, nprobe=4, rerank=20)
    t = r.trace
    assert t.n_steps == 3
    assert t.steps[1].dim == 4  # ADC: m lookups per point, not full dim
    assert t.steps[2].dim == pts.shape[1]  # rerank at full dimension


def test_ivfpq_validates(pts):
    idx = IVFPQIndex(pts, nlist=8, m=4, ks=32, seed=0)
    with pytest.raises(ValueError):
        idx.search(pts[0], 5, nprobe=0)
    with pytest.raises(ValueError):
        idx.search(pts[0], 0, nprobe=2)


def test_sq8_roundtrip_accuracy(pts):
    sq = ScalarQuantizer().fit(pts)
    codes = sq.encode(pts[:100])
    assert codes.dtype == np.uint8
    rec = sq.decode(codes)
    # per-dimension error bounded by half a quantization step
    step = sq.scale
    assert (np.abs(rec - pts[:100]) <= step / 2 + 1e-5).all()


def test_sq8_beats_pq_reconstruction(pts, pq):
    """SQ8 keeps 8 bits per dimension, PQ here 8 bits per 8 dims —
    SQ must reconstruct far more accurately."""
    sq = ScalarQuantizer().fit(pts)
    assert sq.quantization_error(pts[:200]) < 0.1 * pq.quantization_error(pts[:200])


def test_sq8_recall_near_lossless(pts):
    sq =ScalarQuantizer().fit(pts)
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


def test_pq_roundtrip_error_shrinks_with_codebook_size(pts):
    """Round-trip error is monotone in ks: more centroids, less loss."""
    coarse = ProductQuantizer(m=4, ks=8, seed=0).fit(pts)
    fine = ProductQuantizer(m=4, ks=128, seed=0).fit(pts)
    assert fine.quantization_error(pts[:300]) < coarse.quantization_error(pts[:300])


def test_adc_topk_monotone_vs_exact(pq, pts):
    """ADC ordering must preserve the exact ordering's head: the exact
    top-10 of a 300-point pool lands inside the ADC top-60 (the 6x pool a
    rerank would scan)."""
    q = pts[7]
    cand = np.arange(100, 400)
    approx = pq.adc_distances(pq.adc_table(q), pq.encode(pts[cand]))
    exact = ((pts[cand] - q) ** 2).sum(1)
    adc_head = set(cand[np.argsort(approx, kind="stable")[:60]])
    exact_head = set(cand[np.argsort(exact, kind="stable")[:10]])
    assert len(exact_head & adc_head) >= 8


def test_ivfpq_rerank_returns_exact_sorted_distances(pts):
    """With rerank, reported distances are exact and ascending."""
    idx = IVFPQIndex(pts, nlist=16, m=4, ks=64, seed=0)
    r = idx.search(pts[3], 8, nprobe=8, rerank=64)
    exact = ((pts[r.ids] - pts[3]) ** 2).sum(1)
    assert np.allclose(r.dists, exact, rtol=1e-5, atol=1e-5)
    assert (np.diff(r.dists) >= -1e-7).all()


def test_sq8_error_bound_scales_with_span(pts):
    """SQ8 worst-case round-trip error is span/510 per dimension, so total
    squared error is bounded by sum((span/510)^2) — check with margin."""
    sq = ScalarQuantizer().fit(pts)
    rec = sq.decode(sq.encode(pts[:300]))
    worst = ((sq.scale / 2) ** 2).sum()
    assert (((rec - pts[:300]) ** 2).sum(1) <= worst * 1.01 + 1e-6).all()

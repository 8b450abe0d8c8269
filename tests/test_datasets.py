"""Unit tests for the dataset registry (paper Table III)."""

import numpy as np
import pytest

from repro.data.datasets import DATASETS, dataset_names, load_dataset


def test_registry_matches_table3():
    # Table III rows: name, vertices, dim, metric.
    expect = {
        "sift1m-mini": ("SIFT1M", 1_000_000, 128, "l2"),
        "gist1m-mini": ("GIST1M", 1_000_000, 960, "l2"),
        "glove200-mini": ("GLoVe200", 1_183_514, 200, "cosine"),
        "nytimes-mini": ("NYTimes", 290_000, 256, "cosine"),
    }
    assert set(dataset_names()) == set(expect)
    for name, (paper, verts, dim, metric) in expect.items():
        spec = DATASETS[name]
        assert spec.paper_name == paper
        assert spec.paper_vertices == verts
        assert spec.dim == dim
        assert spec.metric == metric


def test_load_dataset_shapes(ds):
    assert ds.base.shape == (2000, 128)
    assert ds.queries.shape == (48, 128)
    assert ds.gt.shape == (48, 64)
    assert ds.n == 2000 and ds.dim == 128


def test_gt_is_exact(ds):
    from repro.data.groundtruth import exact_knn

    ids, _ = exact_knn(ds.queries[:5], ds.base, 10, metric=ds.metric)
    assert np.array_equal(ids, ds.gt_at(10)[:5])


def test_cosine_dataset_normalized(cos_ds):
    assert np.allclose(np.linalg.norm(cos_ds.base, axis=1), 1.0, atol=1e-4)
    assert np.allclose(np.linalg.norm(cos_ds.queries, axis=1), 1.0, atol=1e-4)


def test_cache_returns_same_object(ds):
    again = load_dataset("sift1m-mini", n=2000, n_queries=48, gt_k=64, seed=11)
    assert again is ds


def test_gt_at_validates(ds):
    with pytest.raises(ValueError):
        ds.gt_at(65)


def test_unknown_name():
    with pytest.raises(KeyError):
        load_dataset("deep1b")


def test_n_must_exceed_gtk():
    with pytest.raises(ValueError):
        load_dataset("sift1m-mini", n=10, gt_k=64)


def test_n_queries_must_be_positive():
    with pytest.raises(ValueError, match="n_queries"):
        load_dataset("sift1m-mini", n=50, n_queries=0, gt_k=4)


def test_load_split_is_disjoint_and_complete():
    ds = load_dataset("sift1m-mini", n=80, n_queries=20, gt_k=4, seed=0)
    pool = np.vstack([rows for _, _, rows in DATASETS["sift1m-mini"].blocks(100, 0)])
    assert ds.base.shape == (80, 128) and ds.queries.shape == (20, 128)
    # every generated row is exactly one query or one base row
    split = np.vstack([ds.queries, ds.base])
    key = [("", np.float32)] * 128
    assert np.array_equal(np.sort(split.view(key).ravel()), np.sort(pool.view(key).ravel()))


def test_load_real_dataset_roundtrip(tmp_path, ds):
    """Real-file loading path, exercised with synthetic fvecs files."""
    from repro.data.datasets import load_real_dataset
    from repro.data.io import write_fvecs, write_ivecs

    bp, qp, gp = tmp_path / "b.fvecs", tmp_path / "q.fvecs", tmp_path / "gt.ivecs"
    write_fvecs(bp, ds.base)
    write_fvecs(qp, ds.queries[:8])
    write_ivecs(gp, ds.gt[:8].astype(np.int32))
    real = load_real_dataset(bp, qp, gp, metric=ds.metric, name="sift-real", gt_k=32)
    assert real.n == ds.n and real.dim == ds.dim
    assert np.array_equal(real.gt_at(10), ds.gt_at(10)[:8])


def test_load_real_dataset_recomputes_gt(tmp_path, ds):
    from repro.data.datasets import load_real_dataset
    from repro.data.io import write_fvecs

    bp, qp = tmp_path / "b.fvecs", tmp_path / "q.fvecs"
    write_fvecs(bp, ds.base)
    write_fvecs(qp, ds.queries[:4])
    real = load_real_dataset(bp, qp, metric=ds.metric, gt_k=16)
    assert np.array_equal(real.gt_at(16), ds.gt_at(16)[:4])


def test_load_real_dataset_truncation(tmp_path, ds):
    from repro.data.datasets import load_real_dataset
    from repro.data.io import write_fvecs, write_ivecs

    bp, qp, gp = tmp_path / "b.fvecs", tmp_path / "q.fvecs", tmp_path / "g.ivecs"
    write_fvecs(bp, ds.base)
    write_fvecs(qp, ds.queries[:4])
    write_ivecs(gp, ds.gt[:4].astype(np.int32))
    # truncated base must ignore the stale gt file and recompute
    real = load_real_dataset(bp, qp, gp, metric=ds.metric, max_base=500, gt_k=8)
    assert real.n == 500
    assert real.gt.max() < 500

"""Unit tests for repro.data.synthetic."""

import numpy as np
import pytest

from repro.data.synthetic import (
    gaussian_mixture,
    hypersphere_mixture,
    latent_mixture,
    uniform_cube,
)


def test_latent_mixture_shape_dtype():
    x = latent_mixture(200, 32, seed=0)
    assert x.shape == (200, 32)
    assert x.dtype == np.float32
    assert np.isfinite(x).all()


def test_latent_mixture_deterministic():
    a = latent_mixture(100, 16, seed=5)
    b = latent_mixture(100, 16, seed=5)
    assert np.array_equal(a, b)
    c = latent_mixture(100, 16, seed=6)
    assert not np.array_equal(a, c)


def test_latent_mixture_low_intrinsic_dim():
    x = latent_mixture(500, 64, intrinsic_dim=8, ambient_noise=0.0, seed=1)
    # With no ambient noise the data spans at most intrinsic_dim directions.
    s = np.linalg.svd(x - x.mean(0), compute_uv=False)
    assert (s > 1e-3 * s[0]).sum() <= 8


def test_latent_mixture_cluster_structure():
    x = latent_mixture(800, 24, n_clusters=4, cluster_std=0.2, seed=2)
    # Clustered data: average nearest-neighbour distance much smaller than
    # average pairwise distance.
    from repro.data.metrics import pairwise_distances

    d = pairwise_distances(x[:200], x[:200])
    np.fill_diagonal(d, np.inf)
    nn = d.min(1).mean()
    avg = d[np.isfinite(d)].mean()
    assert nn < 0.3 * avg


def test_hypersphere_rows_unit_norm():
    x = hypersphere_mixture(300, 20, seed=3)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-5)


def test_gaussian_mixture_is_latent_alias():
    a = gaussian_mixture(50, 10, seed=4)
    b = latent_mixture(50, 10, seed=4)
    assert np.array_equal(a, b)


def test_uniform_cube_bounds():
    x = uniform_cube(100, 5, seed=0)
    assert x.min() >= 0 and x.max() <= 1


@pytest.mark.parametrize("bad", [(0, 4), (10, 0)])
def test_invalid_sizes_raise(bad):
    with pytest.raises(ValueError):
        latent_mixture(bad[0], bad[1])


def test_invalid_intrinsic_dim():
    with pytest.raises(ValueError):
        latent_mixture(10, 4, intrinsic_dim=8)

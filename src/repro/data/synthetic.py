"""Synthetic vector dataset generators.

The paper evaluates on SIFT1M, GIST1M, GLoVe200 and NYTimes.  Those corpora
are not available offline, so we generate synthetic stand-ins with the same
dimensionality and metric (DESIGN.md §2).  Two properties of real embedding
corpora matter for reproducing the paper's effects and are engineered in:

* **moderate intrinsic dimensionality** — real descriptors live near a
  low-dimensional manifold, which is what makes proximity graphs navigable.
  We draw latent points from a Gaussian mixture in ``intrinsic_dim``
  dimensions and project them through a random linear map into the ambient
  dimension (plus small ambient noise).  The defaults yield connected
  CAGRA/NSW graphs with smooth recall-vs-candidate-list curves.
* **cluster structure with skewed populations** — Zipf-weighted mixture
  components give queries different search depths, reproducing the
  heavy-tailed step distributions behind the paper's query-bubble analysis
  (Fig. 1/2: max steps ≈ 148–190 % of the mean).
"""

from __future__ import annotations

import numpy as np

from .metrics import normalize, row_blocks

__all__ = [
    "latent_mixture",
    "gaussian_mixture",
    "hypersphere_mixture",
    "uniform_cube",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def latent_mixture(
    n: int,
    dim: int,
    n_clusters: int = 48,
    intrinsic_dim: int | None = None,
    cluster_std: float = 0.5,
    ambient_noise: float = 0.12,
    zipf_exponent: float = 0.7,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Latent Gaussian mixture projected into ``dim`` ambient dimensions.

    The calibrated defaults (intrinsic 18, std 0.5, noise 0.12) produce,
    at 4–20 k points with degree-16..32 graphs, recall@10 rising from ~0.85
    at candidate list 16 to ~1.0 at 128 — the operating curve the paper's
    experiments sweep.  Beside the float32 result it holds the
    ``(n, intrinsic_dim)`` latent points and one block of projected rows.
    """
    blocks = _latent_blocks(n, dim, n_clusters, intrinsic_dim, cluster_std,
                            ambient_noise, zipf_exponent, seed)
    x = np.empty((n, dim), dtype=np.float32)
    for lo, hi, rows in blocks:
        x[lo:hi] = rows
    return x


def _latent_blocks(n, dim, n_clusters=48, intrinsic_dim=None, cluster_std=0.5,
                   ambient_noise=0.12, zipf_exponent=0.7, seed=0):
    """:func:`latent_mixture`'s draw as ``(lo, hi, float64 rows)`` over
    :func:`~repro.data.metrics.row_blocks`.  The centers, labels, latent
    points and projection are drawn first; each block is then projected
    and gets its ambient noise.  ``rng.normal`` fills C-order, so the block
    draws are the one-shot draw, bit for bit."""
    if n <= 0 or dim <= 0:
        raise ValueError("n and dim must be positive")
    if intrinsic_dim is None:
        intrinsic_dim = min(18, dim)  # calibrated default, clamped for tiny dims
    if intrinsic_dim <= 0 or intrinsic_dim > dim:
        raise ValueError("need 0 < intrinsic_dim <= dim")
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    rng = _rng(seed)
    n_clusters = min(n_clusters, n)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, intrinsic_dim))
    weights = 1.0 / np.arange(1, n_clusters + 1) ** zipf_exponent
    weights /= weights.sum()
    labels = rng.choice(n_clusters, size=n, p=weights)
    z = centers[labels] + rng.normal(0.0, cluster_std, size=(n, intrinsic_dim))
    proj = rng.normal(0.0, 1.0, size=(intrinsic_dim, dim)) / np.sqrt(intrinsic_dim)

    def blocks():
        for lo, hi in row_blocks(n, 16 * dim):  # two float64 temporaries
            x = z[lo:hi] @ proj
            if ambient_noise > 0:
                x += rng.normal(0.0, ambient_noise, size=(hi - lo, dim))
            yield lo, hi, x

    return blocks()


def gaussian_mixture(
    n: int,
    dim: int,
    n_clusters: int = 48,
    cluster_std: float = 0.5,
    intrinsic_dim: int | None = None,
    ambient_noise: float = 0.12,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """SIFT/GIST-like corpus (L2 metric): see :func:`latent_mixture`."""
    return latent_mixture(
        n,
        dim,
        n_clusters=n_clusters,
        intrinsic_dim=intrinsic_dim,
        cluster_std=cluster_std,
        ambient_noise=ambient_noise,
        seed=seed,
    )


def hypersphere_mixture(
    n: int,
    dim: int,
    n_clusters: int = 48,
    intrinsic_dim: int | None = None,
    cluster_std: float = 0.5,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """GLoVe/NYTimes-like corpus: latent mixture normalized to the unit
    sphere (cosine metric)."""
    x = latent_mixture(
        n,
        dim,
        n_clusters=n_clusters,
        intrinsic_dim=intrinsic_dim,
        cluster_std=cluster_std,
        seed=seed,
    )
    return normalize(x, copy=False)


def uniform_cube(
    n: int, dim: int, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Uniform points in the unit cube — a structureless control."""
    if n <= 0 or dim <= 0:
        raise ValueError("n and dim must be positive")
    rng = _rng(seed)
    return rng.random((n, dim), dtype=np.float32)

"""Production-scale corpus storage: chunked generation + memory-mapped IO.

The eager generators in :mod:`repro.data.synthetic` materialize the whole
corpus in one float32 ndarray (they project and add noise one row block at
a time, so they build no corpus-sized float64 copies) — fine at the
paper's mini scales (≤ 20k points), untenable at the 1M+ scale the load
experiments target (a 1M × 960 float32 corpus is ~3.8 GB by itself).
This module keeps corpus size off the Python heap:

* :class:`LatentMixtureModel` — the latent-mixture distribution as an
  explicit object (centers, Zipf weights, projection) whose per-chunk
  sampling streams are split off a :class:`numpy.random.SeedSequence`, so
  any chunk of the corpus can be (re)generated independently and the
  result is byte-identical regardless of chunk size;
* :func:`generate_memmap` — stream a model into an ``.npy`` file via
  :func:`numpy.lib.format.open_memmap`, one chunk resident at a time;
* :func:`open_fvecs_mmap` / :func:`open_bvecs_mmap` — zero-copy views of
  texmex files through a structured-dtype memmap (each record is a
  little-endian ``int32`` dim header + payload), so a 1M-point fvecs file
  opens in milliseconds and pages in on demand;
* :func:`exact_knn_big` — ground truth blocked over *points* (the eager
  :func:`~repro.data.groundtruth.exact_knn` blocks only over queries, so
  its distance blocks scale with corpus size).

The eager :func:`~repro.data.synthetic.latent_mixture` draw order is
load-bearing for every existing test corpus, so it stays untouched; the
chunked model is a parallel implementation with its own (also frozen)
draw order.  Merging the two would move every corpus, fixture and digest
the repository pins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .metrics import METRICS, normalize, pairwise_distances

__all__ = [
    "LatentMixtureModel",
    "generate_memmap",
    "open_fvecs_mmap",
    "open_bvecs_mmap",
    "exact_knn_big",
]

#: default points per generation/scan chunk (~128 MB at dim=128 float32
#: stays far under that; chosen so chunk work amortizes numpy call overhead
#: while several chunks fit in cache-adjacent memory).
DEFAULT_CHUNK = 262_144


@dataclass(frozen=True)
class LatentMixtureModel:
    """The latent Gaussian mixture as a reusable, chunkable distribution.

    The shared model parameters (cluster centers, Zipf weights, the
    random projection) are drawn once from ``SeedSequence(seed)``; chunk
    ``i`` of the corpus is drawn from ``SeedSequence(seed, spawn_key=(i,))``
    — so ``sample_chunk(i)`` is independent of every other chunk and the
    corpus content depends only on ``(model params, chunk_size)``, not on
    how many chunks are materialized or in what order.
    """

    dim: int
    n_clusters: int = 48
    intrinsic_dim: int | None = None
    cluster_std: float = 0.5
    ambient_noise: float = 0.12
    zipf_exponent: float = 0.7
    normalized: bool = False
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK
    # Derived model parameters (set in __post_init__).
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _proj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        idim = self.intrinsic_dim
        if idim is None:
            idim = min(18, self.dim)  # same calibrated default as the eager path
            object.__setattr__(self, "intrinsic_dim", idim)
        if not 0 < idim <= self.dim:
            raise ValueError("need 0 < intrinsic_dim <= dim")
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        centers = rng.normal(0.0, 1.0, size=(self.n_clusters, idim))
        weights = 1.0 / np.arange(1, self.n_clusters + 1) ** self.zipf_exponent
        weights /= weights.sum()
        proj = rng.normal(0.0, 1.0, size=(idim, self.dim)) / np.sqrt(idim)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_proj", proj)

    def sample_chunk(self, chunk_index: int, n: int | None = None) -> np.ndarray:
        """Generate chunk ``chunk_index`` (``n`` rows, default chunk_size)."""
        if n is None:
            n = self.chunk_size
        if n <= 0:
            raise ValueError("n must be positive")
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(chunk_index,))
        )
        labels = rng.choice(self.n_clusters, size=n, p=self._weights)
        z = self._centers[labels] + rng.normal(
            0.0, self.cluster_std, size=(n, self.intrinsic_dim)
        )
        x = z @ self._proj
        if self.ambient_noise > 0:
            x += rng.normal(0.0, self.ambient_noise, size=(n, self.dim))
        x = np.ascontiguousarray(x, dtype=np.float32)
        return normalize(x, copy=False) if self.normalized else x

    def chunks(self, n_total: int) -> Iterator[np.ndarray]:
        """Yield consecutive chunks covering ``n_total`` rows.

        Chunk boundaries are fixed by ``chunk_size``: the first
        ``n_total // chunk_size`` chunks are full, the tail partial.  A
        partial tail chunk is a *prefix* of the full chunk's draw (the
        full chunk is generated, then truncated), so growing ``n_total``
        only appends rows — it never changes existing ones.
        """
        if n_total <= 0:
            raise ValueError("n_total must be positive")
        emitted = 0
        ci = 0
        while emitted < n_total:
            take = min(self.chunk_size, n_total - emitted)
            chunk = self.sample_chunk(ci)
            yield chunk[:take] if take < self.chunk_size else chunk
            emitted += take
            ci += 1

    def sample(self, n: int) -> np.ndarray:
        """Materialize ``n`` rows eagerly (small-n convenience/testing)."""
        return np.concatenate(list(self.chunks(n)), axis=0)

    def queries(self, n_queries: int, seed_offset: int = 1_000_000) -> np.ndarray:
        """Draw a disjoint query set from the same distribution.

        Uses chunk indexes starting at ``seed_offset`` so query draws can
        never collide with base-corpus chunks.
        """
        if n_queries <= 0:
            raise ValueError("n_queries must be positive")
        out = []
        remaining = n_queries
        ci = seed_offset
        while remaining > 0:
            take = min(self.chunk_size, remaining)
            out.append(self.sample_chunk(ci, n=take))
            remaining -= take
            ci += 1
        return np.concatenate(out, axis=0)


def generate_memmap(
    path: str | os.PathLike,
    model: LatentMixtureModel,
    n: int,
    progress=None,
) -> np.ndarray:
    """Stream ``n`` rows of ``model`` into ``path`` (``.npy``); return a
    read-only memmap of the result.

    Only one chunk is resident at a time, so generating a 1M+ corpus costs
    ~``chunk_size × dim × 4`` bytes of RAM regardless of ``n``.
    """
    path = Path(path)
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float32, shape=(n, model.dim)
    )
    lo = 0
    for chunk in model.chunks(n):
        out[lo : lo + chunk.shape[0]] = chunk
        lo += chunk.shape[0]
        if progress is not None:
            progress(lo, n)
    out.flush()
    del out
    return np.load(path, mmap_mode="r")


def _open_vecs_mmap(
    path: str | os.PathLike, scalar: np.dtype, item: int
) -> np.ndarray:
    """Structured-dtype memmap view of a texmex vecs file (zero-copy)."""
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        return np.empty((0, 0), dtype=scalar)
    if size < 4:
        raise ValueError(f"{path}: truncated vecs file")
    dim = int(np.fromfile(path, dtype="<i4", count=1)[0])
    if dim <= 0:
        raise ValueError(f"{path}: invalid dimension header {dim}")
    rec = 4 + dim * item
    if size % rec != 0:
        raise ValueError(f"{path}: size {size} not a multiple of record size {rec}")
    dt = np.dtype([("dim", "<i4"), ("vec", scalar, (dim,))])
    m = np.memmap(path, dtype=dt, mode="r")
    # Validate the headers without materializing the payload: the "dim"
    # field view is strided over the mapping, paged in ~1 int per record.
    if not np.all(m["dim"] == dim):
        raise ValueError(f"{path}: inconsistent per-record dimensions")
    return m["vec"]


def open_fvecs_mmap(path: str | os.PathLike) -> np.ndarray:
    """Memory-mapped ``(n, dim) float32`` view of a ``.fvecs`` file.

    Unlike :func:`~repro.data.io.read_fvecs` this never copies the
    payload: the returned array is a strided view into the mapped file
    (read-only), so million-point files open instantly and slices page in
    on first touch.  ``np.ascontiguousarray(view[lo:hi])`` materializes a
    working block.
    """
    return _open_vecs_mmap(path, np.dtype("<f4"), 4)


def open_bvecs_mmap(path: str | os.PathLike) -> np.ndarray:
    """Memory-mapped ``(n, dim) uint8`` view of a ``.bvecs`` file."""
    return _open_vecs_mmap(path, np.dtype("u1"), 1)


def exact_knn_big(
    queries: np.ndarray,
    points: np.ndarray,
    k: int,
    metric: str = "l2",
    point_block: int = 131_072,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force k-NN blocked over *points*, for corpora that don't fit.

    :func:`~repro.data.groundtruth.exact_knn` materializes
    ``block × len(points)`` distance blocks — at 1M points that is ~2 GB
    per 512-query block.  Here ``points`` may be any row-sliceable array
    (an eager ndarray, a memmap from :func:`generate_memmap`, or an
    :func:`open_fvecs_mmap` view); each point block is materialized,
    scored against all queries, and folded into a running top-k.

    Returns ``(indices, distances)`` sorted ascending, identical (up to
    distance ties) to the eager path.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    n_points = points.shape[0]
    if not 0 < k <= n_points:
        raise ValueError(f"k must be in [1, {n_points}], got {k}")
    if point_block <= 0:
        raise ValueError("point_block must be positive")
    nq = queries.shape[0]
    best_d = np.full((nq, k), np.inf, dtype=np.float32)
    best_i = np.full((nq, k), -1, dtype=np.int64)
    for lo in range(0, n_points, point_block):
        hi = min(lo + point_block, n_points)
        block = np.ascontiguousarray(points[lo:hi], dtype=np.float32)
        d = pairwise_distances(queries, block, metric)
        take = min(k, d.shape[1])
        if take < d.shape[1]:
            part = np.argpartition(d, take - 1, axis=1)[:, :take]
        else:
            part = np.tile(np.arange(d.shape[1]), (nq, 1))
        pd = np.take_along_axis(d, part, axis=1)
        # Fold the block's candidates into the running top-k.
        cand_d = np.concatenate([best_d, pd], axis=1)
        cand_i = np.concatenate([best_i, part + lo], axis=1)
        sel = np.argpartition(cand_d, k - 1, axis=1)[:, :k]
        best_d = np.take_along_axis(cand_d, sel, axis=1)
        best_i = np.take_along_axis(cand_i, sel, axis=1)
    order = np.argsort(best_d, axis=1, kind="stable")
    return (
        np.take_along_axis(best_i, order, axis=1),
        np.take_along_axis(best_d, order, axis=1),
    )

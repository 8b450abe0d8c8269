"""k-NN graph construction.

The exact builder is the substrate for the CAGRA graph (CAGRA starts from a
k-NN graph and optimizes it) and a strong ANN baseline graph in its own
right.  ``nn_descent`` provides the approximate alternative used when the
quadratic exact build is too expensive.
"""

from __future__ import annotations

import numpy as np

from ..data.groundtruth import _blocked_knn
from .base import GraphIndex
from .utils import _first_occurrence_mask, as_points

__all__ = ["exact_knn_matrix", "exact_knn_graph", "nn_descent_matrix"]


def exact_knn_matrix(
    points: np.ndarray, k: int, metric: str = "l2"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(n, k)`` neighbour matrix (self excluded), plus distances:
    the self-excluding call of :func:`~repro.data.groundtruth.exact_knn`'s
    blocked brute force, so memory stays one ``BLOCK_BYTES`` distance panel
    per core."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    nbrs, dists = _blocked_knn(points, points, k, metric, skip_self=True)
    return nbrs.astype(np.int32), dists


def exact_knn_graph(points: np.ndarray, k: int, metric: str = "l2") -> GraphIndex:
    """Exact k-NN graph as a :class:`GraphIndex`."""
    nbrs, _ = exact_knn_matrix(points, k, metric)
    return GraphIndex.from_matrix(nbrs, kind="knn")


def nn_descent_matrix(
    points: np.ndarray,
    k: int,
    metric: str = "l2",
    n_iters: int = 8,
    sample: int = 12,
    seed: int = 0,
    tol: float = 0.001,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate k-NN via NN-descent (Dong et al.).

    Each iteration joins every point against a sample of its neighbours'
    neighbours and keeps the k best.  Converges to >0.9 recall k-NN graphs
    in a handful of iterations on clustered data; used when ``n`` makes the
    exact quadratic build unattractive.
    """
    points = as_points(points, metric)
    n = points.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    rng = np.random.default_rng(seed)
    # Random initialization (ids distinct from self).
    nbrs = rng.integers(0, n - 1, size=(n, k), dtype=np.int64)
    nbrs += nbrs >= np.arange(n)[:, None]  # shift to skip self
    dists = _rowwise_distances(points, nbrs, metric)
    order = np.argsort(dists, axis=1, kind="stable")
    nbrs = np.take_along_axis(nbrs, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    for _ in range(n_iters):
        s = min(sample, k)
        picks = nbrs[:, rng.permutation(k)[:s]]  # (n, s) sampled neighbours
        # neighbours-of-neighbours: gather each pick's own sampled list
        cand = nbrs[picks.ravel()][:, :s].reshape(n, s * s)
        cand = np.concatenate([cand, picks], axis=1)
        new_d = _rowwise_distances(points, cand, metric)
        new_d[cand == np.arange(n)[:, None]] = np.inf
        merged_ids = np.concatenate([nbrs, cand], axis=1)
        merged_d = np.concatenate([dists, new_d], axis=1)
        # Deduplicate per row: keep best distance occurrence.
        sort_idx = np.argsort(merged_d, axis=1, kind="stable")
        merged_ids = np.take_along_axis(merged_ids, sort_idx, axis=1)
        merged_d = np.take_along_axis(merged_d, sort_idx, axis=1)
        nbrs, dists, updated = _dedup_update_vectorized(
            nbrs, dists, merged_ids, merged_d, k
        )
        if updated / n < tol:
            break
    return nbrs.astype(np.int32), dists


def _dedup_update_vectorized(
    nbrs: np.ndarray,
    dists: np.ndarray,
    merged_ids: np.ndarray,
    merged_d: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-parallel first-occurrence dedup + top-k update.

    Exact replay of a per-row ``np.unique`` walk
    (``tests/oracles.py::scalar_nn_descent_dedup``): rows are already
    distance-sorted, so the first occurrence of each id in column order
    is its best-distance occurrence; the first ``k`` such columns
    overwrite the leading slots (trailing slots keep their old values
    when a row has fewer than ``k`` distinct ids, as a partial write
    does).  A row counts as updated when its sorted new id set differs
    from the old one — which a short row always does.
    """
    first = _first_occurrence_mask(merged_ids, np.ones(merged_ids.shape, dtype=bool))
    rank = np.cumsum(first, axis=1)
    sel = first & (rank <= k)
    cnt = sel.sum(axis=1)
    rows, cols = np.nonzero(sel)
    pos = rank[rows, cols] - 1
    sorted_old = np.sort(nbrs, axis=1)
    new_ids = nbrs.copy()
    new_d = dists.copy()
    new_ids[rows, pos] = merged_ids[rows, cols]
    new_d[rows, pos] = merged_d[rows, cols]
    short = cnt < k
    updated = int(short.sum())
    full = ~short
    if full.any():
        diff = np.any(np.sort(new_ids[full], axis=1) != sorted_old[full], axis=1)
        updated += int(diff.sum())
    return new_ids, new_d, updated


def _rowwise_distances(
    points: np.ndarray, ids: np.ndarray, metric: str, block: int = 1024
) -> np.ndarray:
    """Distances from point ``i`` to each of ``ids[i]`` (vectorized gather).

    Blocked over rows so the ``(block, m, dim)`` gather and diff stay
    cache-sized instead of materializing an ``(n, m, dim)`` tensor; each
    row's arithmetic is unchanged, so the output is bit-identical to the
    unblocked form.
    """
    n, m = ids.shape
    out = np.empty((n, m), dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        gathered = points[ids[lo:hi]]  # (b, m, dim)
        if metric == "l2":
            diff = gathered - points[lo:hi, None, :]
            out[lo:hi] = np.einsum("nmd,nmd->nm", diff, diff)
        else:
            out[lo:hi] = 1.0 - np.einsum("nmd,nd->nm", gathered, points[lo:hi])
    return out

"""Exact k-NN ground truth and recall evaluation.

Recall is defined exactly as in the paper (§II-A):

    recall = |K_approximate ∩ K_truth| / |K_truth|

computed per query and averaged over the query set.
"""

from __future__ import annotations

import numpy as np

from ..parallel.pool import in_row_ranges
from .metrics import pairwise_distances, require_finite, row_blocks

__all__ = ["exact_knn", "recall", "recall_per_query"]


def exact_knn(
    queries: np.ndarray,
    points: np.ndarray,
    k: int,
    metric: str = "l2",
    point_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force k nearest neighbours.

    Returns ``(indices, distances)`` of shape ``(n_queries, k)``, sorted by
    ascending distance.  ``point_norms`` are the points' squared norms when
    the caller keeps them (see :func:`~repro.data.metrics.pairwise_distances`).
    The queries are checked here; the points are the caller's.
    """
    points = np.asarray(points, dtype=np.float32)
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1:] != points.shape[1:]:
        raise ValueError(
            f"queries {queries.shape} and points {points.shape} differ in width")
    require_finite(queries, "queries")
    if not 0 < k <= points.shape[0]:
        raise ValueError(f"k must be in [1, {points.shape[0]}], got {k}")
    return _blocked_knn(queries, points, k, metric, point_norms)


def _blocked_knn(queries, points, k, metric, point_norms=None, skip_self=False):
    """The brute force of :func:`exact_knn` and, with ``skip_self`` (query
    ``i`` is point ``i``), of :func:`~repro.graphs.knn.exact_knn_matrix`.
    Each :func:`~repro.data.metrics.row_blocks` block reduces its own
    ``(b, n)`` distance panel; the blocks run over row ranges on every
    core, and no output bit depends on how many.  Blocks are sized at 4 B
    a cell although a block holds 16 B a cell (the GEMM, the distances and
    ``argpartition``'s int64 indices): sized at 16 B, a 10k-point corpus
    gets 26-row blocks and its kNN runs 40–50 % slower (docs/performance.md,
    "Set-up")."""
    nq, n = queries.shape[0], points.shape[0]
    idx = np.empty((nq, k), dtype=np.int64)
    dst = np.empty((nq, k), dtype=np.float32)

    def block(lo: int, hi: int) -> None:
        d = pairwise_distances(queries[lo:hi], points, metric, point_norms)
        if skip_self:
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        if k < n:
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
        else:
            part = np.tile(np.arange(n), (hi - lo, 1))
        pd = np.take_along_axis(d, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        idx[lo:hi] = np.take_along_axis(part, order, axis=1)
        dst[lo:hi] = np.take_along_axis(pd, order, axis=1)

    in_row_ranges(block, row_blocks(nq, 4 * n))
    return idx, dst


def recall_per_query(found: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-query recall of ``found`` ids against ``truth`` ids.

    ``found`` may contain ``-1`` padding (queries that returned fewer than k
    results); padding never matches.  Rows are treated as sets, matching the
    paper's definition: a row's hits are the distinct ``truth`` ids that
    also appear, unpadded, in ``found``.
    """
    found = np.asarray(found)
    truth = np.asarray(truth)
    if found.ndim != 2 or truth.ndim != 2:
        raise ValueError("found and truth must be 2-D (n_queries, k)")
    if found.shape[0] != truth.shape[0]:
        raise ValueError("found and truth must have the same number of queries")
    # One row-wise stable sort of [found | truth]: equal ids group together
    # with found copies first, so a truth id is a hit exactly when it is the
    # first truth copy of its group and a real found copy precedes it.
    width = found.shape[1]
    both = np.concatenate([found, truth], axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    ids = np.take_along_axis(both, order, axis=1)
    from_found = (order < width) & (ids >= 0)
    hit = (order[:, 1:] >= width) & from_found[:, :-1] & (ids[:, 1:] == ids[:, :-1])
    return hit.sum(axis=1) / truth.shape[1]


def recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean recall over the query set."""
    return float(recall_per_query(found, truth).mean())

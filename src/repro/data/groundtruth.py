"""Exact k-NN ground truth and recall evaluation.

Recall is defined exactly as in the paper (§II-A):

    recall = |K_approximate ∩ K_truth| / |K_truth|

computed per query and averaged over the query set.
"""

from __future__ import annotations

import numpy as np

from .metrics import blocked_pairwise

__all__ = ["exact_knn", "recall", "recall_per_query"]


def exact_knn(
    queries: np.ndarray,
    points: np.ndarray,
    k: int,
    metric: str = "l2",
    block: int = 512,
    point_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force k nearest neighbours.

    Returns ``(indices, distances)`` of shape ``(n_queries, k)``, sorted by
    ascending distance.  Blocked over queries so memory stays bounded.
    ``point_norms`` are the points' squared norms when the caller keeps
    them (see :func:`~repro.data.metrics.pairwise_distances`).
    """
    points = np.asarray(points, dtype=np.float32)
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    if not 0 < k <= points.shape[0]:
        raise ValueError(f"k must be in [1, {points.shape[0]}], got {k}")
    nq = queries.shape[0]
    idx = np.empty((nq, k), dtype=np.int64)
    dst = np.empty((nq, k), dtype=np.float32)
    for lo, d in blocked_pairwise(queries, points, metric, block, point_norms):
        hi = lo + d.shape[0]
        if k < d.shape[1]:
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
        else:
            part = np.tile(np.arange(d.shape[1]), (d.shape[0], 1))
        pd = np.take_along_axis(d, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        idx[lo:hi] = np.take_along_axis(part, order, axis=1)
        dst[lo:hi] = np.take_along_axis(pd, order, axis=1)
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

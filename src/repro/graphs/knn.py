"""k-NN graph construction.

The exact builder is the substrate for the CAGRA graph (CAGRA starts from a
k-NN graph and optimizes it) and a strong ANN baseline graph in its own
right.
"""

from __future__ import annotations

import numpy as np

from ..data.groundtruth import _blocked_knn
from .base import GraphIndex

__all__ = ["exact_knn_matrix", "exact_knn_graph"]


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

"""Graph diagnostics (degree statistics, connectivity, entry points) and
the leaf helpers every builder shares: the ``points`` boundary check and
the two row-parallel dedup / compaction primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.metrics import query_distances, require_finite, require_unit
from .base import GraphIndex

__all__ = ["GraphStats", "graph_stats", "reachable_fraction", "medoid"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for a graph index."""

    n_vertices: int
    n_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    n_weak_components: int

    @property
    def is_weakly_connected(self) -> bool:
        return self.n_weak_components == 1


def _weak_components(graph: GraphIndex) -> int:
    """Number of weakly connected components.

    Label propagation over the symmetrised edges: every root hooks onto the
    smallest root across its edges, then pointer jumping flattens the
    forest to stars.  Labels only decrease, so no cycle forms.  Only the
    local minima among the roots survive a round, and on a path no two of
    them are adjacent, so a long path takes O(log n) rounds, not O(n).
    """
    n = graph.n_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    u, v = np.concatenate([src, graph.indices]), np.concatenate([graph.indices, src])
    parent = np.arange(n, dtype=np.int64)
    while True:
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            return int(np.count_nonzero(parent == np.arange(n)))
        np.minimum.at(parent, pu[cross], pv[cross])
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]


def graph_stats(graph: GraphIndex) -> GraphStats:
    """Compute degree and connectivity statistics."""
    deg = graph.degrees
    return GraphStats(
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        min_degree=int(deg.min()) if deg.size else 0,
        max_degree=int(deg.max()) if deg.size else 0,
        mean_degree=float(deg.mean()) if deg.size else 0.0,
        n_weak_components=_weak_components(graph),
    )


def reachable_fraction(graph: GraphIndex, entry: int) -> float:
    """Fraction of vertices reachable from ``entry`` by directed BFS.

    Greedy search can only ever return reachable vertices, so this bounds
    attainable recall for a single fixed entry point.
    """
    n = graph.n_vertices
    if not 0 <= entry < n:
        raise ValueError("entry out of range")
    seen = np.zeros(n, dtype=bool)
    seen[entry] = True
    frontier = np.array([entry], dtype=np.int64)
    while frontier.size:
        nxt: list[np.ndarray] = []
        for v in frontier:
            nb = graph.neighbors(int(v))
            fresh = nb[~seen[nb]]
            if fresh.size:
                seen[fresh] = True
                nxt.append(fresh.astype(np.int64))
        frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    return float(seen.mean())


def medoid(points: np.ndarray, metric: str = "l2", sample: int = 2048, seed: int = 0) -> int:
    """Approximate medoid: the point closest to the (sampled) centroid.

    A natural fixed entry point for greedy search (used by DiskANN and by
    our single-CTA kernels when no random entries are requested).
    """
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=min(sample, n), replace=False)
    center = points[idx].mean(axis=0)
    d = query_distances(center, points, metric)
    return int(np.argmin(d))


def as_points(points: np.ndarray, metric: str = "l2") -> np.ndarray:
    """``points`` as the float32 ``(n, dim)`` corpus a builder works on.

    The builders' boundary check: an empty, 1-D or 3-D array would die
    inside ``einsum`` with a subscripts message, and a NaN row builds a
    graph silently (NaN compares false against every bound) — both raise
    ``ValueError`` here, the latter naming the caller's first offending
    row (before any insertion shuffle).  So does a non-unit row under
    cosine, where ``1 - dot`` is not a distance.
    """
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(
            "points must be a finite (n, dim) array with n > 0, "
            f"got shape {points.shape}"
        )
    require_finite(points, "points")
    if metric == "cosine":
        require_unit(np.einsum("ij,ij->i", points, points), "points")
    return points


def _first_occurrence_mask(ids: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each valid id per row (order kept).

    The vectorized form of a per-row ``seen``-set walk: a stable argsort
    groups equal ids, group heads are first occurrences, and a scatter
    puts the mask back in original column order.
    """
    masked = np.where(valid, ids, -1)
    order = np.argsort(masked, axis=1, kind="stable")
    s = np.take_along_axis(masked, order, axis=1)
    first = np.empty(s.shape, dtype=bool)
    first[:, 0] = True
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    first &= s >= 0
    keep = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(keep, order, first, axis=1)
    return keep


def _compact_rows(
    ids: np.ndarray,
    keep: np.ndarray,
    out_k: int,
    extra: np.ndarray | None = None,
    extra_fill: float = np.inf,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Left-compact up to ``out_k`` kept entries per row, preserving order.

    Returns ``(compacted_ids, compacted_extra, counts)``; ids are -1
    padded past each row's count.
    """
    rank = np.cumsum(keep, axis=1)
    sel = keep & (rank <= out_k)
    rows, cols = np.nonzero(sel)
    pos = rank[rows, cols] - 1
    out = np.full((ids.shape[0], out_k), -1, dtype=ids.dtype)
    out[rows, pos] = ids[rows, cols]
    out_extra = None
    if extra is not None:
        out_extra = np.full((ids.shape[0], out_k), extra_fill, dtype=extra.dtype)
        out_extra[rows, pos] = extra[rows, cols]
    counts = sel.sum(axis=1).astype(np.int64)
    return out, out_extra, counts

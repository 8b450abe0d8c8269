"""NSG construction (Fu et al., "Navigating Spreading-out Graph" [15]).

NSG sparsifies a kNN graph with MRNG-style edge selection seeded from a
*navigating node* (the medoid): for each vertex, candidates discovered by a
search from the navigating node are filtered with the occlusion rule (keep
an edge u→v only if no already-kept neighbour w of u is closer to v than u
is), then a spanning tree from the navigating node repairs connectivity.

The result is a sparse, low-out-degree graph that greedy search navigates
from a single fixed entry — a third graph family (besides CAGRA and NSW)
for the ALGAS serving layer, matching the paper's claim of supporting
"general GPU graphs".

All medoid-rooted candidate searches run batched through
:class:`~repro.search.batched.LockstepEngine` over the kNN substrate, the
sequential MRNG test is the chunked triangle-inequality prune
(:func:`~repro.graphs.build_batched.occlusion_prune_mask`), and the BFS
repair works on the padded adjacency arrays; the per-vertex form is
``tests/oracles.py::scalar_build_nsg``.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import pairwise_distances
from .base import GraphIndex
from .build_batched import (
    _MAX_ROWS,
    _csr_from_padded,
    _prefix_search,
    occlusion_prune_mask,
)
from .knn import exact_knn_matrix
from .utils import _compact_rows, _first_occurrence_mask, as_points, medoid

__all__ = ["build_nsg"]


def build_nsg(
    points: np.ndarray,
    out_degree: int = 16,
    knn_k: int | None = None,
    search_l: int = 48,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """Build an NSG over ``points`` with out-degree at most ``out_degree``.

    Parameters
    ----------
    knn_k:
        size of the intermediate kNN candidate pool (default ``2·out_degree``).
    search_l:
        candidate-list length of the construction-time search from the
        navigating node (larger = better edge candidates, slower build).
    """
    points = as_points(points, metric)
    n = points.shape[0]
    if out_degree <= 0:
        raise ValueError("out_degree must be positive")
    if n <= out_degree:
        raise ValueError("need more points than out_degree")
    knn_k = knn_k or 2 * out_degree
    knn_ids, knn_d = exact_knn_matrix(points, min(knn_k, n - 1), metric)
    nav = medoid(points, metric, seed=seed)
    substrate = GraphIndex.from_matrix(knn_ids, kind="knn")
    nbr_mat, degs = substrate.neighbor_matrix()

    adj = np.full((n, out_degree), -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    rows_all = np.arange(n, dtype=np.int64)
    for lo in range(0, n, _MAX_ROWS):
        hi = min(n, lo + _MAX_ROWS)
        # Pool = kNN row ∪ the search *path* from the navigating node
        # (every expanded vertex) — the path's long-range vertices are
        # what make NSG navigable from its fixed entry; the final beam
        # alone is too local and recall collapses.
        pool_s, pool_sd = _prefix_search(
            points, lo, hi, n, nbr_mat, degs, nav, search_l, metric,
            collect_expansions=True,
        )
        pool_ids = np.concatenate([knn_ids[lo:hi].astype(np.int64), pool_s], axis=1)
        pool_d = np.concatenate([knn_d[lo:hi], pool_sd], axis=1)
        o = np.argsort(pool_d, axis=1, kind="stable")
        pool_ids = np.take_along_axis(pool_ids, o, axis=1)
        pool_d = np.take_along_axis(pool_d, o, axis=1)
        valid = (pool_ids >= 0) & (pool_ids != rows_all[lo:hi, None])
        valid &= _first_occurrence_mask(pool_ids, valid)
        cids, cd, _ = _compact_rows(pool_ids, valid, pool_ids.shape[1], extra=pool_d)
        occ = occlusion_prune_mask(points, cids, cd, metric)
        links, _, lcnt = _compact_rows(cids, occ, out_degree)
        adj[lo:hi] = links
        counts[lo:hi] = lcnt

    _repair_from_nav(points, adj, counts, nav, out_degree, metric)
    return _csr_from_padded(adj, counts, "nsg")


def _bfs_seen(adj: np.ndarray, nav: int) -> np.ndarray:
    """Vectorized BFS over a -1-padded adjacency matrix; returns the
    reachable-from-``nav`` mask."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[nav] = True
    frontier = np.array([nav], dtype=np.int64)
    while frontier.size:
        nb = adj[frontier]
        nb = nb[nb >= 0]
        if nb.size == 0:
            break
        nb = np.unique(nb)
        fresh = nb[~seen[nb]]
        seen[fresh] = True
        frontier = fresh
    return seen


def _repair_from_nav(
    points: np.ndarray,
    adj: np.ndarray,
    counts: np.ndarray,
    nav: int,
    out_degree: int,
    metric: str,
) -> None:
    """BFS connectivity repair from the navigating node, on raw arrays.

    Unreachable vertices attach to their nearest reachable vertex,
    preferring anchors with spare capacity (append-only attachment cannot
    disconnect a subtree the way edge replacement can), with the
    BFS+attach cycle iterated to a fixpoint so replacement-induced
    disconnections are themselves repaired.
    """
    for _ in range(10):
        seen = _bfs_seen(adj, nav)
        unreached = np.flatnonzero(~seen)
        if unreached.size == 0:
            return
        reach = np.flatnonzero(seen)
        for blo in range(0, unreached.size, 1024):
            bhi = min(unreached.size, blo + 1024)
            block = unreached[blo:bhi]
            d = pairwise_distances(points[block], points[reach], metric)
            order = np.argsort(d, axis=1, kind="stable")
            for row, v in enumerate(block.tolist()):
                anchor = None
                for i in order[row]:
                    a = int(reach[i])
                    if counts[a] < out_degree:
                        anchor = a
                        break
                if anchor is not None:
                    adj[anchor, counts[anchor]] = v
                    counts[anchor] += 1
                else:
                    adj[int(reach[order[row, 0]]), out_degree - 1] = v

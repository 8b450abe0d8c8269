"""CAGRA-style fixed-out-degree graph construction (Ootomo et al., ICDE'24).

CAGRA builds a GPU-friendly graph in two phases:

1. an *intermediate* k-NN graph (here: exact blocked brute force, or
   NN-descent for large n), with per-node candidates sorted by distance;
2. *graph optimization*: detour-based pruning of each node's candidate list
   followed by reverse-edge addition, producing a fixed out-degree ``d``
   (half "strong" forward edges, half reverse edges).

Fixed degree means every search step fetches exactly ``d`` neighbour ids
with one coalesced read — the property the multi-CTA kernels rely on.
"""

from __future__ import annotations

import numpy as np

from .base import GraphIndex
from .knn import exact_knn_matrix, nn_descent_matrix
from .utils import _compact_rows, _first_occurrence_mask, as_points

__all__ = ["build_cagra", "prune_detours"]


def build_cagra(
    points: np.ndarray,
    graph_degree: int = 32,
    intermediate_degree: int | None = None,
    metric: str = "l2",
    use_nn_descent: bool = False,
    chunk: int = 256,
    seed: int = 0,
) -> GraphIndex:
    """Build a CAGRA graph with out-degree exactly ``graph_degree``.

    Forward-rank selection, reverse-edge bucketing and the first-wins
    dedup assembly are whole-matrix array ops (stable sorts and
    first-occurrence masks); the CSR equals the per-vertex loops of
    ``tests/oracles.py::scalar_build_cagra`` byte for byte.
    """
    points = as_points(points)
    n = points.shape[0]
    if graph_degree <= 0:
        raise ValueError("graph_degree must be positive")
    if n <= graph_degree:
        raise ValueError("need more points than graph_degree")
    inter = intermediate_degree or 2 * graph_degree
    inter = min(inter, n - 1)
    if use_nn_descent:
        cand_ids, cand_d = nn_descent_matrix(points, inter, metric, seed=seed)
    else:
        cand_ids, cand_d = exact_knn_matrix(points, inter, metric)
    cand_ids = cand_ids.astype(np.int64)

    keep_mask = prune_detours(points, cand_ids, cand_d, metric, chunk=chunk)

    # Strong (unpruned) forward edges first, in rank order.
    t = max(graph_degree // 2, 1)
    korder = np.argsort(~keep_mask, axis=1, kind="stable")
    kept_ids = np.take_along_axis(cand_ids, korder, axis=1)
    kept_cnt = keep_mask.sum(axis=1).astype(np.int64)
    tcol = np.arange(t)
    fwd = np.where(
        tcol[None, :] < np.minimum(kept_cnt, t)[:, None], kept_ids[:, :t], -1
    )

    # Reverse edges: rank candidates by how early they appear in the
    # source's kept list (CAGRA's reverse-rank ordering, approximated by
    # forward rank), bucketed per destination and ordered by (forward
    # rank, source id).
    src, kcol = np.nonzero(keep_mask)
    rank = (np.cumsum(keep_mask, axis=1) - 1)[src, kcol]
    dst = cand_ids[src, kcol]
    o = np.lexsort((src, rank, dst))
    dst_s, src_s = dst[o], src[o]
    cnt_rev = np.bincount(dst_s, minlength=n)
    maxrev = int(cnt_rev.max()) if dst_s.size else 0
    rev = np.full((n, maxrev), -1, dtype=np.int64)
    if dst_s.size:
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(cnt_rev[:-1], out=starts[1:])
        rev[dst_s, np.arange(dst_s.size) - starts[dst_s]] = src_s

    # Assembly: forward, then reverse, then padding from the remaining
    # intermediate candidates (pruned ones included); first occurrence
    # wins, self excluded.
    rows_idx = np.arange(n, dtype=np.int64)[:, None]
    prio = np.concatenate([fwd, rev, cand_ids], axis=1)
    valid = np.concatenate(
        [
            fwd >= 0,
            (rev >= 0) & (rev != rows_idx),
            cand_ids != rows_idx,
        ],
        axis=1,
    )
    keep = _first_occurrence_mask(prio, valid)
    out, _, _ = _compact_rows(prio, keep, graph_degree)
    return GraphIndex.from_matrix(out.astype(np.int32), kind="cagra")


def prune_detours(
    points: np.ndarray,
    cand_ids: np.ndarray,
    cand_d: np.ndarray,
    metric: str = "l2",
    chunk: int = 256,
) -> np.ndarray:
    """Detour pruning mask over sorted candidate lists.

    Edge ``u→v`` (rank j) is *detourable* if some earlier candidate ``w``
    (rank < j) satisfies ``d(w, v) < d(u, v)`` — one can reach ``v`` more
    cheaply through ``w``.  Vectorized per chunk: one batched Gram tensor
    gives all intra-candidate distances for ``chunk`` nodes at once.

    Returns a boolean mask of kept (non-detourable) edges; rank 0 is always
    kept.
    """
    points = np.asarray(points, dtype=np.float32)
    cand_ids = np.asarray(cand_ids)
    n, k = cand_ids.shape
    keep = np.ones((n, k), dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        g = points[cand_ids[lo:hi]]  # (c, k, dim)
        if metric == "l2":
            sq = np.einsum("ckd,ckd->ck", g, g)
            gram = np.einsum("ckd,cjd->ckj", g, g)
            pair = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
            np.maximum(pair, 0.0, out=pair)
        else:
            pair = 1.0 - np.einsum("ckd,cjd->ckj", g, g)
        # pair[c, w, j] = d(w, v_j); mask w >= j (only earlier ranks count)
        tri = np.tril(np.ones((k, k), dtype=bool))  # w >= j when w row index
        pair = np.where(tri[None, :, :], np.inf, pair)
        best_detour = pair.min(axis=1)  # (c, k) min over earlier-ranked w
        keep[lo:hi] = best_detour >= cand_d[lo:hi]
        keep[lo:hi, 0] = True
    return keep

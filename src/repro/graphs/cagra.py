"""CAGRA-style fixed-out-degree graph construction (Ootomo et al., ICDE'24).

CAGRA builds a GPU-friendly graph in two phases:

1. an *intermediate* k-NN graph of degree ``2 × graph_degree`` (here:
   the exact blocked brute force), per-node candidates sorted by distance;
2. *graph optimization*: detour-based pruning of each node's candidate list
   followed by reverse-edge addition, producing a fixed out-degree ``d``
   (half "strong" forward edges, half reverse edges).

Fixed degree means every search step fetches exactly ``d`` neighbour ids
with one coalesced read — the property the multi-CTA kernels rely on.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import row_blocks
from ..parallel.pool import in_row_ranges
from .base import GraphIndex
from .build_batched import occlusion_prune_mask
from .knn import exact_knn_matrix
from .utils import _compact_rows, _first_occurrence_mask, as_points

__all__ = ["build_cagra"]


def build_cagra(
    points: np.ndarray,
    graph_degree: int = 32,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """Build a CAGRA graph with out-degree exactly ``graph_degree``.

    Forward-rank selection, reverse-edge bucketing and the first-wins
    dedup assembly are whole-matrix array ops (stable sorts and
    first-occurrence masks); the CSR equals the per-vertex loops of
    ``tests/oracles.py::scalar_build_cagra`` byte for byte.  Like the
    kNN, the detour prune (:func:`occlusion_prune_mask`) runs over row
    ranges on every core, with the same bits on any number of them.
    The build draws nothing at random: ``seed`` is accepted so every
    builder takes the same keywords, and changes no bit.
    """
    points = as_points(points, metric)
    n = points.shape[0]
    if graph_degree <= 0:
        raise ValueError("graph_degree must be positive")
    if n <= graph_degree:
        raise ValueError("need more points than graph_degree")
    inter = min(2 * graph_degree, n - 1)
    cand_ids, cand_d = exact_knn_matrix(points, inter, metric)
    cand_ids = cand_ids.astype(np.int64)

    keep_mask = np.empty(cand_ids.shape, dtype=bool)

    def prune(lo: int, hi: int) -> None:
        keep_mask[lo:hi] = occlusion_prune_mask(
            points, cand_ids[lo:hi], cand_d[lo:hi], metric, rule="detour")

    in_row_ranges(prune, row_blocks(n, 4 * inter * points.shape[1]))

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

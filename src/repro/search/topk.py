"""TopK selection and multi-list merge helpers.

``merge_sorted_lists`` is the reference semantics for both merge paths the
paper contrasts: the baseline GPU divide-and-conquer merge kernel and
ALGAS's CPU-side priority-queue merge (:mod:`repro.core.merge`).  Both must
produce the global TopK of the union.  ``heap_merge`` is that CPU merge for
one query; ``merge_topk_batch`` is the same merge, emission order included,
for a whole batch of queries whose per-CTA lists sit in one contiguous
``(Q, n_lists, width)`` block — what the lockstep engine's epilogue runs.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["select_topk", "merge_sorted_lists", "heap_merge", "merge_topk_batch"]


def select_topk(
    ids: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global TopK of an unsorted (ids, dists) pool, ties broken by id.

    Duplicate ids are collapsed (keeping the best distance) — defensive,
    although the visited bitmap normally guarantees uniqueness.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float32)
    if ids.shape != dists.shape:
        raise ValueError("ids and dists must have the same shape")
    if ids.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    order = np.lexsort((ids, dists))
    ids, dists = ids[order], dists[order]
    _, first = np.unique(ids, return_index=True)
    first.sort()
    ids, dists = ids[first], dists[first]
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def merge_sorted_lists(
    lists: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge several ascending-sorted (ids, dists) lists into the TopK."""
    if not lists:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    all_ids = np.concatenate([np.asarray(i, dtype=np.int64) for i, _ in lists])
    all_d = np.concatenate([np.asarray(d, dtype=np.float32) for _, d in lists])
    return select_topk(all_ids, all_d, k)


def heap_merge(
    lists: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Priority-queue k-way merge — the host-side algorithm of §IV-B ④.

    Walks each sorted list with a cursor and a min-heap, stopping after
    ``k`` unique emissions; this touches O(k + T) elements instead of
    sorting everything, which is why the CPU can keep up with the GPU.
    """
    heap: list[tuple[float, int, int, int]] = []
    for li, (ids, dists) in enumerate(lists):
        if len(ids):
            heap.append((float(dists[0]), int(ids[0]), li, 0))
    heapq.heapify(heap)
    out_ids: list[int] = []
    out_d: list[float] = []
    seen: set[int] = set()
    while heap and len(out_ids) < k:
        d, vid, li, pos = heapq.heappop(heap)
        if vid not in seen:
            seen.add(vid)
            out_ids.append(vid)
            out_d.append(d)
        ids, dists = lists[li]
        if pos + 1 < len(ids):
            heapq.heappush(heap, (float(dists[pos + 1]), int(ids[pos + 1]), li, pos + 1))
    return np.array(out_ids, dtype=np.int64), np.array(out_d, dtype=np.float32)


def merge_topk_batch(
    ids: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`heap_merge` for ``Q`` queries at once, bit for bit.

    ``ids`` / ``dists`` are ``(Q, n_lists, width)``: each query's sorted
    lists side by side, -1 / inf padded at every list's tail (the layout of
    the lockstep engine's candidate pools).  Returns ``(Q, k)`` ids and
    distances, -1 / inf padded past each row's ``counts`` entry — the
    number of unique ids the heap would have emitted.

    The heap pops list *heads* in ``(dist, id, list)`` order, so inside one
    list equal distances leave in stored order whatever their ids: a tie
    ``(1.0, id 7), (1.0, id 3)`` comes out 7, 3, and a ``(1.0, id 5)``
    heading another list goes *before* both.  An element hidden behind a
    same-distance predecessor with a larger id leaves right after it, i.e.
    it sorts under the running maximum id of its tie run.  One stable
    two-key sort on ``(dist, run-max id)`` over the list-major layout
    therefore reproduces the pop order exactly (list index and position
    break the remaining ties, as the heap tuple does), and the heap's
    ``seen`` set is a first-occurrence mask over that order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float32)
    if ids.shape != dists.shape or ids.ndim != 3:
        raise ValueError("ids and dists must be matching (Q, n_lists, width) arrays")
    n_q, _, width = ids.shape
    out_ids = np.full((n_q, k), -1, dtype=np.int64)
    out_d = np.full((n_q, k), np.inf, dtype=np.float32)
    if ids.size == 0:
        return out_ids, out_d, np.zeros(n_q, dtype=np.int64)
    # Pads take the largest key so a real entry at distance inf still
    # precedes them.
    key = np.where(ids < 0, np.iinfo(np.int64).max, ids)
    for p in range(1, width):
        tied = dists[:, :, p] == dists[:, :, p - 1]
        np.maximum(key[:, :, p], key[:, :, p - 1], out=key[:, :, p], where=tied)
    flat_d = dists.reshape(n_q, -1)
    order = np.lexsort((key.reshape(n_q, -1), flat_d), axis=1)
    s_ids = np.take_along_axis(ids.reshape(n_q, -1), order, axis=1)
    s_d = np.take_along_axis(flat_d, order, axis=1)
    # First occurrence of each id along the pop order: stable sort by id,
    # shift-compare, scatter the duplicate flags back.
    by_id = np.argsort(s_ids, axis=1, kind="stable")
    g_ids = np.take_along_axis(s_ids, by_id, axis=1)
    dup_sorted = np.zeros(g_ids.shape, dtype=bool)
    dup_sorted[:, 1:] = g_ids[:, 1:] == g_ids[:, :-1]
    dup = np.empty_like(dup_sorted)
    np.put_along_axis(dup, by_id, dup_sorted, axis=1)
    emit = ~dup & (s_ids >= 0)
    rank = np.cumsum(emit, axis=1)
    emit &= rank <= k
    rr, cc = np.nonzero(emit)
    slot = rank[rr, cc] - 1
    out_ids[rr, slot] = s_ids[rr, cc]
    out_d[rr, slot] = s_d[rr, cc]
    return out_ids, out_d, emit.sum(axis=1)

"""Unit tests for TopK selection and merging."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.topk import (
    heap_merge,
    merge_sorted_lists,
    merge_topk_batch,
    select_topk,
)


def test_select_topk_basic():
    ids = np.array([5, 3, 9, 1])
    d = np.array([0.3, 0.1, 0.9, 0.2], dtype=np.float32)
    out_ids, out_d = select_topk(ids, d, 2)
    assert out_ids.tolist() == [3, 1]
    assert np.allclose(out_d, [0.1, 0.2])


def test_select_topk_dedups_keeping_best():
    ids = np.array([7, 7, 8])
    d = np.array([0.5, 0.2, 0.3], dtype=np.float32)
    out_ids, out_d = select_topk(ids, d, 3)
    assert out_ids.tolist() == [7, 8]
    assert np.allclose(out_d, [0.2, 0.3])


def test_select_topk_empty():
    out_ids, _ = select_topk(np.array([], np.int64), np.array([], np.float32), 3)
    assert out_ids.size == 0


def test_heap_merge_equals_global_topk():
    rng = np.random.default_rng(0)
    lists = []
    for _ in range(4):
        d = np.sort(rng.random(10).astype(np.float32))
        ids = rng.choice(1000, 10, replace=False)
        lists.append((ids.astype(np.int64), d))
    a_ids, a_d = heap_merge(lists, 7)
    b_ids, b_d = merge_sorted_lists(lists, 7)
    assert np.allclose(a_d, b_d)
    assert set(a_ids) == set(b_ids)


def test_heap_merge_dedups_across_lists():
    l1 = (np.array([1, 2]), np.array([0.1, 0.4], dtype=np.float32))
    l2 = (np.array([1, 3]), np.array([0.2, 0.3], dtype=np.float32))
    ids, d = heap_merge([l1, l2], 3)
    assert ids.tolist() == [1, 3, 2]


def test_heap_merge_short_lists():
    ids, d = heap_merge([(np.array([4]), np.array([1.0], dtype=np.float32))], 5)
    assert ids.tolist() == [4]
    ids, _ = heap_merge([], 5)
    assert ids.size == 0


# --------------------------------------------------- batched k-way merge
def _pad_lists(per_query, width):
    """``per_query[q]`` is a list of (ids, dists) lists -> the padded
    ``(Q, n_lists, width)`` block ``merge_topk_batch`` takes."""
    n_lists = max(len(lists) for lists in per_query)
    ids = np.full((len(per_query), n_lists, width), -1, dtype=np.int64)
    dists = np.full((len(per_query), n_lists, width), np.inf, dtype=np.float32)
    for q, lists in enumerate(per_query):
        for li, (l_ids, l_d) in enumerate(lists):
            ids[q, li, : len(l_ids)] = l_ids
            dists[q, li, : len(l_d)] = l_d
    return ids, dists


def _assert_batch_equals_heap(per_query, k, width):
    ids, dists = _pad_lists(per_query, width)
    out_ids, out_d, counts = merge_topk_batch(ids, dists, k)
    assert out_ids.shape == out_d.shape == (len(per_query), k)
    for q, lists in enumerate(per_query):
        ref_ids, ref_d = heap_merge(
            [(np.asarray(i, np.int64), np.asarray(d, np.float32))
             for i, d in lists], k,
        )
        m = int(counts[q])
        assert m == ref_ids.size
        assert np.array_equal(out_ids[q, :m], ref_ids), (q, lists)
        assert out_d[q, :m].tobytes() == ref_d.tobytes(), (q, lists)
        assert (out_ids[q, m:] == -1).all() and np.isinf(out_d[q, m:]).all()


def test_batch_merge_ties_inside_a_list_follow_position_not_id():
    """The hazard: ``heap_merge`` orders equal distances by (dist, id) across
    list heads but by *position* inside a list.  List 0 holds the tie
    (1.0, id 7), (1.0, id 3) in non-ascending id order; with (1.0, id 5)
    heading list 1 the heap emits 5, 7, 3 — a (dist, id) lexsort would say
    3, 5, 7 and a plain stable sort 7, 3, 5."""
    lists = [([7, 3], [1.0, 1.0]), ([5, 9], [1.0, 2.0])]
    ref_ids, _ = heap_merge(
        [(np.array(i), np.array(d, dtype=np.float32)) for i, d in lists], 4
    )
    assert ref_ids.tolist() == [5, 7, 3, 9]
    _assert_batch_equals_heap([lists], 4, 2)
    _assert_batch_equals_heap([lists], 2, 2)
    # the run max carries through a longer tie run, and resets after it
    lists = [([8, 2, 6, 1], [1.0, 1.0, 1.0, 3.0]), ([4, 7, 0], [1.0, 1.0, 3.0])]
    _assert_batch_equals_heap([lists], 7, 4)


def test_batch_merge_empty_and_short_inputs():
    _assert_batch_equals_heap([[([], [])], [([4], [1.0])]], 5, 3)
    ids, d, counts = merge_topk_batch(
        np.empty((0, 2, 3), np.int64), np.empty((0, 2, 3), np.float32), 4
    )
    assert ids.shape == d.shape == (0, 4) and counts.shape == (0,)
    ids, d, counts = merge_topk_batch(
        np.empty((2, 3, 0), np.int64), np.empty((2, 3, 0), np.float32), 4
    )
    assert (ids == -1).all() and counts.tolist() == [0, 0]


_tied_list = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 4)), min_size=0, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_tied_list, min_size=1, max_size=5), min_size=1, max_size=4),
    st.integers(1, 40),
)
def test_batch_merge_equals_heap_merge(raw, k):
    """Random per-CTA sorted lists, integer-valued distances (heavy ties),
    duplicate ids across lists, ragged sizes including empty lists, ``k``
    beyond the total entry count.  Within a list ties keep generation
    order, so equal distances arrive in arbitrary id order."""
    per_query = []
    for lists_raw in raw:
        lists = []
        for lst in lists_raw:
            lst = sorted(lst, key=lambda t: t[1])  # stable: by distance only
            lists.append(([i for i, _ in lst], [float(d) for _, d in lst]))
        per_query.append(lists)
    _assert_batch_equals_heap(per_query, k, 6)

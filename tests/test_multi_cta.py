"""Unit tests for multi-CTA search."""

import numpy as np
import pytest

from repro.data.groundtruth import recall
from repro.search.batched import per_cta_capacity
from repro.search.topk import merge_sorted_lists

from .oracles import make_entries
from .reference.multi_cta import multi_cta_search


def test_per_cta_capacity():
    assert per_cta_capacity(64, 4, 10) == 16
    assert per_cta_capacity(16, 4, 10) == 10  # floor at k
    with pytest.raises(ValueError):
        per_cta_capacity(0, 4, 10)


def test_make_entries_disjoint(rng):
    entries = make_entries(1000, 4, 3, rng)
    assert len(entries) == 4
    flat = np.concatenate(entries)
    assert len(set(flat.tolist())) == len(flat)


def test_multi_cta_basic(ds, graph):
    r = multi_cta_search(ds.base, graph, ds.queries[0], 8, 64, 4, metric=ds.metric)
    assert len(r.ids) <= 8
    assert (np.diff(r.dists) >= -1e-6).all()
    assert r.trace.n_ctas == 4


def test_merged_equals_global_topk_of_lists(ds, graph):
    r = multi_cta_search(ds.base, graph, ds.queries[1], 8, 64, 4, metric=ds.metric)
    ref_ids, ref_d = merge_sorted_lists(r.extra["per_cta"], 8)
    assert np.allclose(np.sort(r.dists), np.sort(ref_d), atol=1e-5)


def test_visited_sharing_no_duplicate_scoring(ds, graph):
    r = multi_cta_search(ds.base, graph, ds.queries[2], 8, 64, 4, metric=ds.metric)
    all_ids = np.concatenate([ids for ids, _ in r.extra["per_cta"]])
    # shared bitmap guarantees a point lands in exactly one CTA's list
    assert len(set(all_ids.tolist())) == len(all_ids)


def test_recall_comparable_to_single_cta(ds, graph, entry):
    from .reference.intra_cta import intra_cta_search

    k = 10
    multi, single = [], []
    for q in ds.queries[:24]:
        multi.append(
            multi_cta_search(ds.base, graph, q, k, 64, 4, metric=ds.metric).ids[:k]
        )
        single.append(
            intra_cta_search(ds.base, graph, q, k, 64, entry, metric=ds.metric).ids[:k]
        )
    rm = recall(np.stack(multi), ds.gt_at(k)[:24])
    rs = recall(np.stack(single), ds.gt_at(k)[:24])
    assert rm >= rs - 0.1  # random entries + sharing keep recall in range


def test_explicit_entries(ds, graph):
    entries = [np.array([0]), np.array([1])]
    r = multi_cta_search(
        ds.base, graph, ds.queries[0], 5, 32, 2, metric=ds.metric, entries=entries
    )
    assert r.trace.n_ctas == 2


def test_entry_count_mismatch(ds, graph):
    with pytest.raises(ValueError):
        multi_cta_search(
            ds.base, graph, ds.queries[0], 5, 32, 2, metric=ds.metric,
            entries=[np.array([0])],
        )


def test_invalid_n_ctas(ds, graph):
    with pytest.raises(ValueError):
        multi_cta_search(ds.base, graph, ds.queries[0], 5, 32, 0, metric=ds.metric)

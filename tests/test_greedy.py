"""Unit tests for the reference greedy / ef-search implementations."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall

from .reference.greedy import ef_search, greedy_search


def test_greedy_search_finds_neighbors(ds, graph, entry):
    q = ds.queries[0]
    ids, d, steps = greedy_search(ds.base, graph, q, 5, 48, entry, metric=ds.metric)
    assert len(ids) == 5
    assert (np.diff(d) >= -1e-6).all()
    assert steps >= 48  # Alg.1 checks every list entry


def test_greedy_recall(ds, graph, entry):
    found = np.stack(
        [
            greedy_search(ds.base, graph, q, 10, 64, entry, metric=ds.metric)[0]
            for q in ds.queries[:16]
        ]
    )
    assert recall(found, ds.gt_at(10)[:16]) > 0.75


def test_ef_search_recall_close_to_greedy(ds, graph, entry):
    found = np.stack(
        [
            ef_search(ds.base, graph, q, 10, 64, entry, metric=ds.metric)[0]
            for q in ds.queries[:16]
        ]
    )
    assert recall(found, ds.gt_at(10)[:16]) > 0.6


def test_greedy_multiple_entries(ds, graph):
    q = ds.queries[1]
    entries = np.array([0, 10, 20])
    ids, _, _ = greedy_search(ds.base, graph, q, 5, 32, entries, metric=ds.metric)
    assert len(ids) == 5


def test_param_validation(ds, graph, entry):
    with pytest.raises(ValueError):
        greedy_search(ds.base, graph, ds.queries[0], 0, 8, entry)
    with pytest.raises(ValueError):
        greedy_search(ds.base, graph, ds.queries[0], 9, 8, entry)
    with pytest.raises(ValueError):
        ef_search(ds.base, graph, ds.queries[0], 9, 8, entry)

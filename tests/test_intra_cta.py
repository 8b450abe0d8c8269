"""Unit tests for the intra-CTA (trace-producing) search kernel."""

import numpy as np
import pytest

from repro.data.groundtruth import recall
from repro.search.batched import BeamConfig

from .reference.greedy import greedy_search
from .reference.intra_cta import intra_cta_search


def test_results_sorted_and_k(ds, graph, entry):
    r = intra_cta_search(ds.base, graph, ds.queries[0], 8, 48, entry, metric=ds.metric)
    assert len(r.ids) == 8
    assert (np.diff(r.dists) >= -1e-6).all()


def test_matches_reference_greedy(ds, graph, entry):
    """Cross-validation: independent Algorithm-1 implementations agree."""
    for qi in range(6):
        q = ds.queries[qi]
        r = intra_cta_search(ds.base, graph, q, 10, 48, entry, metric=ds.metric)
        ids_ref, d_ref, steps_ref = greedy_search(
            ds.base, graph, q, 10, 48, entry, metric=ds.metric
        )
        assert np.allclose(np.sort(r.dists), np.sort(d_ref), atol=1e-4)
        # step counts match (trace has one extra seed step)
        assert r.trace.n_steps - 1 == steps_ref


def test_trace_structure(ds, graph, entry):
    r = intra_cta_search(ds.base, graph, ds.queries[2], 8, 32, entry, metric=ds.metric)
    t = r.trace
    assert t.n_steps > 32  # at least one step per list entry + seed
    seed = t.steps[0]
    assert seed.n_expanded == 0 and seed.n_new_points == 1
    for s in t.steps[1:]:
        assert s.n_expanded >= 1
        assert s.n_visited_checks == s.n_neighbors_fetched
        assert s.n_new_points <= s.n_neighbors_fetched
        assert s.dim == ds.dim
        if s.did_sort:
            assert s.sort_size == s.cand_list_len + s.n_new_points
    assert t.result_len == 8


def test_visited_never_rescored(ds, graph, entry):
    r = intra_cta_search(ds.base, graph, ds.queries[3], 8, 48, entry, metric=ds.metric)
    # total distance computations can never exceed number of base points
    assert r.trace.n_distances <= ds.n


def test_beam_reduces_sorts(ds, graph, entry):
    q = ds.queries[4]
    greedy = intra_cta_search(ds.base, graph, q, 8, 64, entry, metric=ds.metric)
    beam = intra_cta_search(
        ds.base, graph, q, 8, 64, entry, metric=ds.metric,
        beam=BeamConfig(offset_beam=8, beam_width=4),
    )
    assert beam.trace.n_sorts < greedy.trace.n_sorts
    # expansions happen in groups during the diffusing phase
    assert any(s.n_expanded > 1 for s in beam.trace.steps)


def test_beam_recall_preserved(ds, graph, entry):
    k = 10
    found_g, found_b = [], []
    for q in ds.queries[:24]:
        found_g.append(intra_cta_search(ds.base, graph, q, k, 64, entry, metric=ds.metric).ids[:k])
        found_b.append(
            intra_cta_search(
                ds.base, graph, q, k, 64, entry, metric=ds.metric,
                beam=BeamConfig(offset_beam=8, beam_width=4),
            ).ids[:k]
        )
    rg = recall(np.stack(found_g), ds.gt_at(k)[:24])
    rb = recall(np.stack(found_b), ds.gt_at(k)[:24])
    assert rb >= rg - 0.05


def test_deterministic(ds, graph, entry):
    a = intra_cta_search(ds.base, graph, ds.queries[5], 8, 32, entry, metric=ds.metric)
    b = intra_cta_search(ds.base, graph, ds.queries[5], 8, 32, entry, metric=ds.metric)
    assert np.array_equal(a.ids, b.ids)
    assert a.trace.n_steps == b.trace.n_steps


def test_no_trace_mode(ds, graph, entry):
    r = intra_cta_search(
        ds.base, graph, ds.queries[0], 8, 32, entry, metric=ds.metric, record_trace=False
    )
    assert r.trace is None and len(r.ids) == 8


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(offset_beam=-1)
    with pytest.raises(ValueError):
        BeamConfig(beam_width=0)

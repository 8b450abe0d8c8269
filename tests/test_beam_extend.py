"""Beam extend against greedy extend on the scalar reference searchers."""

from repro.search import BeamConfig

from .reference import intra_cta_search, multi_cta_search


def test_beam_vs_greedy_sorts(ds, graph, entry):
    q = ds.queries[0]
    b = intra_cta_search(ds.base, graph, q, 8, 64, entry, metric=ds.metric,
                         beam=BeamConfig())
    g = intra_cta_search(ds.base, graph, q, 8, 64, entry, metric=ds.metric)
    assert b.trace.n_sorts < g.trace.n_sorts


def test_multi_cta_variants(ds, graph):
    q = ds.queries[1]
    b = multi_cta_search(ds.base, graph, q, 8, 64, 4, metric=ds.metric,
                         beam=BeamConfig())
    g = multi_cta_search(ds.base, graph, q, 8, 64, 4, metric=ds.metric)
    assert b.trace.n_ctas == 4 and g.trace.n_ctas == 4
    assert b.trace.total_sorts <= g.trace.total_sorts

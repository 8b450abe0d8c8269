"""Scalar search oracles for the parity tests.

``src/`` has one search engine on the serve path (the lockstep
:class:`~repro.search.LockstepEngine`); the one-step-per-iteration
reference functions (``intra_cta_search`` / ``multi_cta_search``) are
plain functions the tests call directly.  This module composes them into
the system-level shape so ``system.search_all`` can be checked against
them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.trace import QueryTrace
from repro.search import intra_cta_search, multi_cta_search


def scalar_search_all(system, queries, seed=None, precision=None,
                      rerank_mult=None):
    """``system.search_all`` computed query by query on the scalar oracle.

    Reproduces the engine's per-query rng draw order: single-CTA systems
    draw ``_single_cta_entries`` then run ``intra_cta_search``; multi-CTA
    systems hand the rng to ``multi_cta_search``, which draws
    ``make_entries`` itself.  Returns ``(ids, dists, traces)`` shaped like
    :meth:`BaseGraphSystem.search_all`.
    """
    rng = np.random.default_rng(system.seed if seed is None else seed)
    codec = system.traversal_codec(precision)
    rm = rerank_mult or system.rerank_mult
    nq, k = queries.shape[0], system.k
    ids = np.full((nq, k), -1, dtype=np.int64)
    dists = np.full((nq, k), np.inf, dtype=np.float32)
    traces = []
    for i in range(nq):
        if system.n_parallel == 1:
            r = intra_cta_search(
                system.base, system.graph, queries[i], k,
                system.tuning.per_cta_cand_len,
                system._single_cta_entries(rng),
                metric=system.metric, beam=system.beam,
                codec=codec, rerank_mult=rm,
            )
            trace = QueryTrace(ctas=[r.trace], dim=int(system.base.shape[1]), k=k)
        else:
            r = multi_cta_search(
                system.base, system.graph, queries[i], k, system.l_total,
                system.n_parallel, metric=system.metric, beam=system.beam,
                entries_per_cta=system.entries_per_cta, rng=rng,
                codec=codec, rerank_mult=rm,
            )
            trace = r.trace
        m = min(k, len(r.ids))
        ids[i, :m] = r.ids[:m]
        dists[i, :m] = r.dists[:m]
        traces.append(trace)
    return ids, dists, traces


def assert_same_search_all(got, want):
    """``(ids, dists, traces)`` triples must match bit for bit."""
    (gi, gd, gt), (wi, wd, wt) = got, want
    assert np.array_equal(gi, wi)
    assert gd.tobytes() == wd.tobytes()
    assert len(gt) == len(wt)
    for a, b in zip(gt, wt):
        assert len(a.ctas) == len(b.ctas)
        for ca, cb in zip(a.ctas, b.ctas):
            assert ca.steps == cb.steps
            assert ca.result_len == cb.result_len

"""Scalar search and pricing oracles for the parity tests.

``src/`` has one search engine on the serve path (the lockstep
:class:`~repro.search.LockstepEngine`); the one-step-per-iteration
reference functions (``intra_cta_search`` / ``multi_cta_search``) are
plain functions the tests call directly.  This module composes them into
the system-level shape so ``system.search_all`` can be checked against
them bit for bit.  :func:`scalar_cta_cost` is the matching pricing
oracle: the step-by-step accumulation of ``CostModel.step_cost`` the block
pricer must equal exactly.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.costmodel import CTACost
from repro.gpusim.trace import QueryTrace, TraceBlock
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
    """``(ids, dists, traces)`` triples must match bit for bit; the engine's
    trace block equals the oracle's traces column for column."""
    (gi, gd, gt), (wi, wd, wt) = got, want
    assert np.array_equal(gi, wi)
    assert gd.tobytes() == wd.tobytes()
    assert isinstance(gt, TraceBlock)
    assert gt == TraceBlock.from_traces(wt)


def scalar_cta_cost(cost_model, trace) -> CTACost:
    """Price one ``CTATrace`` step by step, accumulating left to right —
    the pre-block ``CostModel.cta_cost`` kept as the reference."""
    sel = fet = fil = dis = srt = 0.0
    for s in trace.steps:
        c = cost_model.step_cost(s)
        sel += c.select_us
        fet += c.fetch_us
        fil += c.filter_us
        dis += c.distance_us
        srt += c.sort_us
    dev = cost_model.device
    write = 0.0
    if trace.result_len:
        write = dev.cycles_to_us(dev.global_mem_latency_cycles) + (
            trace.result_len * 8 / (dev.global_mem_bw_gbps * 1e3)
        )
    return CTACost(sel, fet, fil, dis, srt, write, trace.n_steps)

"""Multi-CTA search: several CTAs cooperate on one query.

§III-B / §IV-B: to use more threads than one CTA offers, a query is served
by ``T`` CTAs, each running the intra-CTA algorithm on its own (smaller)
candidate list from its own hashed entry points, sharing only the visited
bitmap.  On completion each CTA holds a local TopK; the union's global TopK
is the answer.  The *merge* of those lists is the operation ALGAS moves to
the CPU (:func:`repro.search.topk.heap_merge` executed host-side), while
baseline CAGRA merges on the GPU — both paths produce identical ids, only
their cost differs (see :meth:`repro.gpusim.CostModel.gpu_merge_us`).

CTAs are interleaved round-robin step-by-step to model their concurrent
execution: the visited bitmap mediates work partitioning exactly as the
atomic bitmap does on hardware.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.trace import QueryTrace
from repro.graphs.base import GraphIndex
from repro.search.batched import (
    BeamConfig,
    SearchResult,
    per_cta_capacity,
    query_entries,
    seeds_per_cta,
)
from repro.search.precision import DEFAULT_RERANK_MULT
from repro.search.topk import heap_merge
from .intra_cta import CTASearcher, rerank_into_trace
from .visited import VisitedBitmap

__all__ = ["multi_cta_search"]


def multi_cta_search(
    points: np.ndarray,
    graph: GraphIndex,
    query: np.ndarray,
    k: int,
    l_total: int,
    n_ctas: int,
    metric: str = "l2",
    beam: BeamConfig | None = None,
    entries: list[np.ndarray] | None = None,
    record_trace: bool = True,
    codec=None,
    rerank_mult: int | None = None,
) -> SearchResult:
    """Search one query with ``n_ctas`` cooperating CTAs.

    Returns the merged TopK plus a :class:`QueryTrace` holding one
    :class:`CTATrace` per CTA.  The merged result equals the global TopK of
    the per-CTA lists (property-tested), so swapping the merge location
    (CPU vs GPU) cannot change recall — only latency.

    This is the round-robin reference of ``batched_multi_cta_search``,
    which steps all CTAs in one lockstep SoA batch
    (:mod:`repro.search.batched`), held bit-identical to it (results and
    traces) by the parity tests.

    A ``codec`` (:func:`~repro.search.precision.make_codec`) runs every
    CTA on compressed distances (one shared per-query dispatch state),
    merges the per-CTA lists at ``rerank_mult × k`` width and re-scores
    the merged pool exactly.

    Without ``entries`` each CTA seeds ``seeds_per_cta`` of its list from
    ``query_entries`` of the query over every point, as the lockstep
    search does.
    """
    if n_ctas <= 0:
        raise ValueError("n_ctas must be positive")
    if rerank_mult is None:
        rerank_mult = DEFAULT_RERANK_MULT
    l_cta = per_cta_capacity(l_total, n_ctas, k)
    if entries is None:
        entries = query_entries(np.atleast_2d(query), n_ctas, seeds_per_cta(l_cta),
                                np.arange(points.shape[0]))[0]
    if len(entries) != n_ctas:
        raise ValueError("need one entry array per CTA")

    visited = VisitedBitmap(points.shape[0])
    codec_state = None
    if codec is not None:
        codec_state = codec.query_state(
            np.asarray(query, dtype=np.float32)[None, :]
        )
    searchers = [
        CTASearcher(
            points, graph, query, l_cta, entries[i], visited,
            metric=metric, beam=beam, record_trace=record_trace,
            codec=codec, codec_state=codec_state,
        )
        for i in range(n_ctas)
    ]
    # Round-robin stepping models concurrent CTAs contending on the bitmap.
    active = True
    guard = 200 * l_cta * n_ctas + 1000
    while active:
        active = False
        for s in searchers:
            if s.step():
                active = True
        guard -= 1
        if guard <= 0:
            raise RuntimeError("multi-CTA search exceeded step budget")

    rcap = max(k, rerank_mult * k) if codec is not None else k
    lists = [s.results(rcap) for s in searchers]
    ids, dists = heap_merge(lists, rcap)
    if codec is not None:
        ids, dists = rerank_into_trace(
            np.asarray(points, dtype=np.float32), searchers[0].query, metric,
            ids, k, searchers[0]._qnorm, searchers[0].trace,
            set_result_len=n_ctas == 1,
        )
    trace = None
    if record_trace:
        trace = QueryTrace(
            ctas=[s.trace for s in searchers], dim=int(points.shape[1]), k=k
        )
    return SearchResult(ids=ids, dists=dists, trace=trace, extra={"per_cta": lists})

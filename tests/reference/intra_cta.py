"""Scalar intra-CTA search: the step-by-step reference of the lockstep engine.

One CTA walking the graph with a fixed-capacity candidate list in shared
memory (Alg. 1), optionally running ALGAS's *beam extend* two-phase
schedule (§IV-B).  It executes the search
for real on the vectors — results and recall are exact — while recording a
:class:`~repro.gpusim.trace.StepRecord` per maintenance cycle for the cost
model.

Beam extend: while the selected candidate's offset in the list is below
``offset_beam`` the searcher is in the *localization* phase and behaves
exactly like greedy search (one expansion, one sort per iteration).  Once
the selection offset reaches ``offset_beam`` — i.e. the head of the list is
already exhausted and the search is diffusing inside the target region —
the searcher expands up to ``beam_width`` candidates per cycle and performs
a *single* sort/merge for all of them, trading strict greediness for fewer
bitonic sorts.
"""

from __future__ import annotations

import numpy as np

from repro.data.metrics import pair_distances
from repro.gpusim.trace import CTATrace, StepRecord
from repro.graphs.base import GraphIndex
from repro.search.batched import BeamConfig, SearchResult
from repro.search.precision import DEFAULT_RERANK_MULT, exact_rerank
from .candidates import CandidateList
from .visited import VisitedBitmap

__all__ = [
    "CTASearcher",
    "intra_cta_search",
    "rerank_step_record",
    "rerank_into_trace",
]


class CTASearcher:
    """Stateful stepping searcher — one instance models one CTA.

    Exposes :meth:`step` so the multi-CTA driver can interleave CTAs
    round-robin (they run concurrently on hardware and interact through the
    shared visited bitmap).
    """

    def __init__(
        self,
        points: np.ndarray,
        graph: GraphIndex,
        query: np.ndarray,
        cand_capacity: int,
        entries: np.ndarray,
        visited: VisitedBitmap,
        metric: str = "l2",
        beam: BeamConfig | None = None,
        record_trace: bool = True,
        codec=None,
        codec_state=None,
    ):
        if cand_capacity <= 0:
            raise ValueError("cand_capacity must be positive")
        self.points = points
        self.graph = graph
        self.query = np.asarray(query, dtype=np.float32)
        self.metric = metric
        self.beam = beam
        self.visited = visited
        self.cand = CandidateList(cand_capacity)
        self.trace = CTATrace() if record_trace else None
        self.finished = False
        self.dim = int(points.shape[1])
        # Squared query norm, computed with the same row-wise einsum the
        # lockstep engine uses, so both backends hit the identical norms
        # expansion in pair_distances (byte-parity across backends).
        if metric == "l2":
            q2d = self.query[None, :]
            self._qnorm = np.einsum("ij,ij->i", q2d, q2d)
        else:
            self._qnorm = None
        # Quantized traversal substrate (repro.search.precision).  The
        # dispatch state (scaled query / ADC table) may be shared across
        # the CTAs of one query via ``codec_state`` — on hardware it is
        # built once per query, not per CTA.
        self.codec = codec
        if codec is not None:
            self._cstate = (
                codec_state
                if codec_state is not None
                else codec.query_state(self.query[None, :])
            )
            # Per-dispatch fused kernel (scratch owned by this CTA; the
            # dispatch state above may still be shared across CTAs).
            self._ckernel = codec.make_kernel(self._cstate)
            self._trace_dim = int(codec.trace_dim)
            self._precision = codec.precision
        else:
            self._cstate = None
            self._ckernel = None
            self._trace_dim = self.dim
            self._precision = "float32"

        entries = np.unique(np.asarray(entries, dtype=np.int64))
        if entries.size == 0:
            raise ValueError("need at least one entry point")
        fresh = visited.test_and_set(entries)
        seed_ids = entries[fresh]
        if seed_ids.size:
            seed_d = self._distances(seed_ids)
            sort_size = self.cand.merge(seed_ids, seed_d)
        else:
            sort_size = 0
        if self.trace is not None:
            self.trace.steps.append(
                StepRecord(
                    select_offset=0,
                    n_expanded=0,
                    n_neighbors_fetched=0,
                    n_visited_checks=int(entries.size),
                    n_new_points=int(seed_ids.size),
                    dim=self._trace_dim,
                    sort_size=sort_size,
                    cand_list_len=0,
                    did_sort=sort_size > 1,
                    best_dist=float(self.cand.dists[0]) if self.cand.size else float("nan"),
                    precision=self._precision,
                )
            )
        if self.cand.size == 0:
            self.finished = True

    def _distances(self, ids: np.ndarray) -> np.ndarray:
        """Distances from the query to the points ``ids`` index.

        Both backends route through the same kernels — the float32 path
        through :func:`pair_distances` with a cached query norm (the norms
        expansion), the quantized paths through the codec's row-wise
        compressed kernel — so the scalar oracle and the lockstep engine
        produce bit-identical distances for every precision.
        """
        if self.codec is not None:
            qrows = np.zeros(ids.shape[0], dtype=np.int64)
            return self._ckernel(qrows, ids)
        pts = self.points[ids]
        return pair_distances(
            np.broadcast_to(self.query, pts.shape), pts, self.metric,
            a_norms=self._qnorm,
        )

    def step(self) -> bool:
        """One maintenance cycle; returns False once the search is done."""
        if self.finished:
            return False
        off = self.cand.first_unchecked()
        if off < 0:
            self._finish()
            return False
        diffusing = self.beam is not None and off >= self.beam.offset_beam
        width = self.beam.beam_width if diffusing else 1
        offsets = self.cand.unchecked_offsets(width)
        pick_ids = self.cand.ids[offsets].copy()
        selected_dist = float(self.cand.dists[offsets[0]])
        self.cand.mark_checked(offsets)

        nbr_chunks = [self.graph.neighbors(int(p)) for p in pick_ids]
        nbrs = (
            np.concatenate(nbr_chunks).astype(np.int64)
            if nbr_chunks
            else np.empty(0, np.int64)
        )
        fresh = self.visited.test_and_set(nbrs)
        new_ids = nbrs[fresh]
        cand_len_before = self.cand.size
        if new_ids.size:
            new_d = self._distances(new_ids)
            sort_size = self.cand.merge(new_ids, new_d)
            did_sort = True
        else:
            sort_size = 0
            did_sort = False
        if self.trace is not None:
            self.trace.steps.append(
                StepRecord(
                    select_offset=int(off),
                    n_expanded=int(offsets.size),
                    n_neighbors_fetched=int(nbrs.size),
                    n_visited_checks=int(nbrs.size),
                    n_new_points=int(new_ids.size),
                    dim=self._trace_dim,
                    sort_size=int(sort_size),
                    cand_list_len=int(cand_len_before),
                    did_sort=did_sort,
                    best_dist=selected_dist,
                    precision=self._precision,
                )
            )
        return True

    def run(self, max_steps: int | None = None) -> None:
        """Drive this CTA to completion."""
        budget = max_steps if max_steps is not None else 100 * self.cand.capacity
        while self.step():
            budget -= 1
            if budget <= 0:
                raise RuntimeError("search exceeded step budget — disconnected graph?")

    def results(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        ids, dists = self.cand.topk(k)
        if self.trace is not None:
            self.trace.result_len = int(ids.size)
        return ids, dists

    def _finish(self) -> None:
        self.finished = True


def intra_cta_search(
    points: np.ndarray,
    graph: GraphIndex,
    query: np.ndarray,
    k: int,
    cand_capacity: int,
    entries: np.ndarray | int,
    metric: str = "l2",
    beam: BeamConfig | None = None,
    record_trace: bool = True,
    codec=None,
    rerank_mult: int | None = None,
) -> SearchResult:
    """Single-CTA search of one query (greedy or beam-extend).

    ``entries`` may be a single vertex id or an array of ids (multiple
    random entries are how CAGRA-style searches seed the list).  This is
    the one-step-per-Python-iteration reference of the SoA lockstep
    engine's one-CTA case, ``batched_multi_cta_search(n_ctas=1)``
    (:mod:`repro.search.batched`), which the parity tests hold
    bit-identical to it (results, and traces once this ``CTATrace`` is
    wrapped as the engine's one-CTA ``QueryTrace``).

    A ``codec`` (:func:`~repro.search.precision.make_codec`) runs the
    traversal on compressed distances and re-scores the ``rerank_mult × k``
    best survivors exactly.
    """
    if rerank_mult is None:
        rerank_mult = DEFAULT_RERANK_MULT
    entries = np.atleast_1d(np.asarray(entries, dtype=np.int64))
    visited = VisitedBitmap(points.shape[0])
    s = CTASearcher(
        points, graph, query, cand_capacity, entries, visited,
        metric=metric, beam=beam, record_trace=record_trace, codec=codec,
    )
    s.run()
    if codec is None:
        ids, dists = s.results(k)
        return SearchResult(ids=ids, dists=dists, trace=s.trace)
    approx_ids, _ = s.results(max(k, rerank_mult * k))
    ids, dists = rerank_into_trace(
        np.asarray(points, dtype=np.float32), s.query, metric, approx_ids, k,
        s._qnorm, s.trace, set_result_len=True,
    )
    return SearchResult(ids=ids, dists=dists, trace=s.trace)


def rerank_step_record(n_scored: int, dim: int, best_dist: float) -> StepRecord:
    """The float32 re-rank pass as a priced trace step.

    ``n_scored`` full-width exact distances plus one sort of the pool.
    """
    return StepRecord(
        select_offset=0,
        n_expanded=0,
        n_neighbors_fetched=0,
        n_visited_checks=0,
        n_new_points=n_scored,
        dim=dim,
        sort_size=n_scored,
        cand_list_len=0,
        did_sort=n_scored > 1,
        best_dist=best_dist,
        precision="float32",
    )


def rerank_into_trace(
    points: np.ndarray,
    query: np.ndarray,
    metric: str,
    pool: np.ndarray,
    k: int,
    qnorm: np.ndarray | None,
    trace,
    set_result_len: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The quantized-search epilogue: exact re-rank plus its priced step.

    Re-scores ``pool`` with :func:`~repro.search.precision.exact_rerank`
    and, when ``trace`` (a :class:`~repro.gpusim.trace.CTATrace`) is
    recording, appends the re-rank pass to it.  Single-CTA searches also
    own the trace's ``result_len`` (``set_result_len``); multi-CTA searches
    record the step on CTA 0 and leave each CTA's own result length alone.
    """
    ids, dists = exact_rerank(points, query, metric, pool, k, qnorm=qnorm)
    if trace is not None:
        trace.steps.append(
            rerank_step_record(
                int(pool.size), int(points.shape[1]),
                float(dists[0]) if dists.size else float("nan"),
            )
        )
        if set_result_len:
            trace.result_len = int(ids.size)
    return ids, dists

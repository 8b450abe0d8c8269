"""Vectorized lockstep batch search engine (SoA intra-CTA kernels).

The scalar ``CTASearcher`` (``tests/reference/intra_cta.py``) advances one
query one graph step per Python iteration — every ``neighbors()`` call, distance
matvec, and argsort is a sub-microsecond kernel drowned in numpy dispatch
overhead.  This module runs **B CTAs in lockstep** instead, the way CAGRA's
batched kernels (and any serious GPU traversal) do:

* candidate lists are structure-of-arrays ``(B, L)`` id/dist/checked
  blocks, selected and maintained with row-parallel kernels;
* the per-query visited sets are one packed ``Q × n``-bit ``uint8``
  bitmap with a vectorized, order-preserving test-and-set;
* neighbour expansion is a single fancy-indexed gather from the graph's
  cached padded ``(n, max_degree)`` neighbour matrix
  (:meth:`~repro.graphs.base.GraphIndex.neighbor_matrix`);
* all freshly admitted points of a step are scored by **one** cache-blocked
  pair kernel call (:class:`~repro.data.metrics.PairKernel`, or the
  codec's :class:`~repro.search.precision.Int8Kernel`): operands are gathered a
  fixed-size block at a time into scratch sized once per kernel, so a
  round's working set is cache-resident however wide the round is;
* pairs that cannot survive truncation (``dist >= `` the row's worst kept
  distance) are dropped before the merge — always, tracing or not: the
  trace records the pre-filter counts;
* list maintenance is one stable row-wise argsort over the rows that
  actually received new candidates, in a merge block allocated once per
  engine;
* the epilogue is batched too: :meth:`LockstepEngine.topk` hands out the
  padded ``(R, k)`` pools, and the top-k is one
  :func:`~repro.search.topk.merge_topk_batch` over the contiguous per-CTA
  lists (the CPU merge of §IV-B, ``heap_merge``'s order exactly; at one
  CTA a one-list merge, the identity);
* a batch of at least ``2 × MIN_ROWS_PER_THREAD`` rows is cut into
  contiguous query chunks (:func:`~repro.parallel.pool.thread_chunks`),
  one engine each, stepped concurrently on threads: rows never interact,
  so the stitched chunks are the one-engine batch bit for bit.

The engine is a *bit-exact* replacement for the scalar path: per-row
ordering of every effectful operation (entry seeding, candidate selection,
neighbour fetch order, visited test-and-set, tie-breaking in the merge)
matches the scalar searcher, and the pair kernels equal
:func:`~repro.data.metrics.pair_distances` / the allocating codec oracle
(``tests/oracles.py::codec_distances``) on every distance bit
(``tests/test_pair_kernel.py``).  Multi-CTA queries share a visited row; the
row order within a query reproduces the scalar round-robin schedule, so
cross-CTA work partitioning — and therefore results *and* op traces —
are identical too.

Traces leave the engine columnar: each lockstep round appends the count
arrays it already holds to a :class:`~repro.gpusim.trace.TraceBuilder`, and
:meth:`LockstepEngine.trace_block` assembles one
:class:`~repro.gpusim.trace.TraceBlock` for the whole batch — no per-row,
per-step Python object exists on this path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..data.metrics import PairKernel, require_finite
from ..gpusim.trace import TraceBlock, TraceBuilder, precision_code
from ..graphs.base import GraphIndex
from ..parallel.pool import on_threads, thread_chunks
from .precision import DEFAULT_RERANK_MULT
from .topk import merge_topk_batch

__all__ = [
    "BeamConfig",
    "SearchResult",
    "per_cta_capacity",
    "query_entries",
    "seeds_per_cta",
    "BatchedVisited",
    "BatchResults",
    "LockstepEngine",
    "batched_multi_cta_search",
]

@dataclass(frozen=True)
class BeamConfig:
    """Beam-extend parameters (§IV-C "timing for activating beam search").

    While the selected candidate's offset in the list is below
    ``offset_beam`` a CTA is *localizing* and expands one candidate per
    maintenance cycle, like greedy search; from there on it is *diffusing*
    and expands up to ``beam_width`` candidates per cycle under a single
    sort/merge (§IV-B).
    """

    #: candidate-list offset at which the diffusing phase begins.
    offset_beam: int = 8
    #: candidates expanded per maintenance cycle in the diffusing phase.
    beam_width: int = 4

    def __post_init__(self) -> None:
        if self.offset_beam < 0:
            raise ValueError("offset_beam must be non-negative")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")

    @classmethod
    def for_capacity(cls, capacity: int) -> "BeamConfig":
        """The default two-phase split per §IV-C for a candidate list of
        ``capacity`` entries: diffuse once the selected candidate sits past
        ~L/8 of the list, floored at 8 so short lists never enter the
        diffusing phase mid-localization; four expansions per sort."""
        return cls(offset_beam=max(8, capacity // 8), beam_width=4)


@dataclass
class SearchResult:
    """Outcome of one query search."""

    ids: np.ndarray
    dists: np.ndarray
    trace: object = None  # CTATrace or QueryTrace
    extra: dict = field(default_factory=dict)


def per_cta_capacity(l_total: int, n_ctas: int, k: int) -> int:
    """Split a total candidate budget across CTAs (each ≥ the TopK)."""
    if l_total <= 0 or n_ctas <= 0 or k <= 0:
        raise ValueError("l_total, n_ctas, k must be positive")
    return max(k, math.ceil(l_total / n_ctas))


def seeds_per_cta(capacity: int) -> int:
    """Entry points a CTA seeds: half its candidate list of ``capacity``
    entries, at least two.  Scoring random samples into the list first is
    CAGRA's start; a CTA that starts in the wrong cluster climbs out
    sooner, so its query's slowest CTA finishes earlier."""
    return max(2, capacity // 2)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise on a ``uint64`` array (wraps)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def query_entries(
    queries: np.ndarray,
    n_ctas: int,
    per_cta: int,
    population: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Entry points that are a function of the query alone: a ``(B,
    n_ctas, per_cta)`` block of ids from ``population`` (sorted,
    non-empty).

    Each row's ``uint32`` view is folded to one 64-bit key (a dot with
    splitmix64-keyed column weights plus ``seed``, then the finaliser),
    and entry slot ``j`` of the row names the id ``splitmix64(key + j)
    mod (max + 1)``, ``max`` the population's largest id; the slot takes
    the first population id at or after it.  So a row draws the same
    entries alone, permuted or in any batch, and removing an id from the
    population moves only the slots that named it.  Entries may repeat: a
    duplicate of an earlier CTA's entry is already visited when the CTA
    seeds, and adds nothing."""
    words = np.ascontiguousarray(queries, dtype=np.float32).view(np.uint32)
    weights = _splitmix64(np.arange(words.shape[1], dtype=np.uint64))
    key = _splitmix64(words.astype(np.uint64) @ weights + np.uint64(seed))
    slots = np.arange(n_ctas * per_cta, dtype=np.uint64)
    named = _splitmix64(key[:, None] + slots[None, :]) % np.uint64(population[-1] + 1)
    pick = population.searchsorted(named.astype(np.int64))
    return population[pick].reshape(-1, n_ctas, per_cta)


class BatchedVisited:
    """Per-query packed visited bitmaps with ordered test-and-set.

    One bit per (query, point) pair — all CTAs of a query share its bits,
    like the shared visited table of §IV-B — packed into one flat ``uint8``
    array at bit ``query * n + point``.  ``test_and_set`` resolves
    duplicates first-come-first-served over the *given sequence order*,
    which the engine arranges to be (CTA, fetch position) — exactly the
    order in which the scalar round-robin schedule issues its atomicOrs.
    """

    __slots__ = ("n", "n_rows", "_bits", "probes", "sets")

    #: the bit of ``key & 7`` within its byte
    _BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))

    def __init__(self, n_rows: int, n_points: int):
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        self.n = n_points
        self.n_rows = max(n_rows, 1)
        self._bits = np.zeros((self.n_rows * n_points + 7) // 8, dtype=np.uint8)
        self.probes = 0
        self.sets = 0

    def test_and_set(self, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mark ``(rows, ids)`` pairs visited; return the fresh mask."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        if int(np.maximum.reduce(ids.view(np.uint64))) >= self.n:  # negatives wrap
            raise IndexError("vertex id out of range")
        self.probes += int(ids.size)
        key = np.multiply(rows, self.n, dtype=np.int64)
        key += ids
        bit = self._BIT.take(key & 7)
        word = key >> 3
        fresh = (self._bits.take(word) & bit) == 0
        f_idx = fresh.nonzero()[0]
        if f_idx.size:
            # First come, first served over the sequence: pack (pair key,
            # sequence position) into one int64, sort once, and every key
            # equal to its predecessor is a later duplicate that loses.
            pos_bits = int(f_idx.size - 1).bit_length()
            if (self.n_rows * self.n - 1).bit_length() + pos_bits > 63:
                raise OverflowError(
                    f"visited pair keys do not fit 63 bits: Q={self.n_rows} "
                    f"rows x n={self.n} points with {f_idx.size} fresh pairs "
                    f"in one call"
                )
            keys = key.take(f_idx)
            keys <<= pos_bits
            keys |= np.arange(f_idx.size, dtype=np.int64)
            keys.sort()
            pair = keys >> pos_bits
            dup = (pair[1:] == pair[:-1]).nonzero()[0]
            if dup.size:
                keys = keys.take(dup + 1)
                keys &= (1 << pos_bits) - 1
                fresh[f_idx.take(keys)] = False
                f_idx = fresh.nonzero()[0]
            np.bitwise_or.at(self._bits, word.take(f_idx), bit.take(f_idx))
            self.sets += int(f_idx.size)
        return fresh


class LockstepEngine:
    """Advance ``R`` CTA rows (possibly across many queries) in lockstep.

    Row ``r`` models one CTA serving query ``row_query[r]``; rows of the
    same query must be contiguous and in CTA order (that order is the
    scalar round-robin schedule the visited tie-breaking reproduces).

    Besides a frozen :class:`~repro.graphs.base.GraphIndex`, ``graph`` may
    be a raw ``(nbr_mat, degrees)`` pair — a padded neighbour matrix plus
    per-vertex counts, the representation the graph *builders*
    (:mod:`repro.graphs.build_batched`) mutate between insertion
    waves.  ``n_visible`` optionally masks expansion to the vertex-id
    prefix ``[0, n_visible)``: insertion-time searches against a growing
    graph only ever traverse the already-inserted prefix, without the
    builder having to re-materialize a CSR per wave.  ``point_norms`` are
    the points' squared L2 norms when the caller keeps them (a
    :class:`~repro.graphs.dynamic.DynamicGraph` does); otherwise the engine
    computes them.

    A round costs its active rows, not ``R``: the engine keeps the active
    row ids, works on per-active-row arrays, and counts its rounds by
    width in :attr:`rounds_by_active`.
    """

    def __init__(
        self,
        points: np.ndarray,
        graph: GraphIndex | tuple[np.ndarray, np.ndarray],
        queries: np.ndarray,
        row_query: np.ndarray,
        row_entries: list[np.ndarray],
        cand_capacity: int,
        metric: str = "l2",
        beam: BeamConfig | None = None,
        record_trace: bool = True,
        n_visible: int | None = None,
        record_expansions: bool = False,
        codec=None,
        alive_mask: np.ndarray | None = None,
        point_norms: np.ndarray | None = None,
    ):
        if cand_capacity <= 0:
            raise ValueError("cand_capacity must be positive")
        self.points = np.asarray(points, dtype=np.float32)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        # The bound filter drops what `dist < bound` rejects, NaN included:
        # a non-finite query must fail here, not thin its own result.
        require_finite(queries, "queries")
        self.queries = queries
        self.row_query = np.asarray(row_query, dtype=np.int64)
        if len(row_entries) != self.row_query.size:
            raise ValueError("need one entry array per row")
        self.metric = metric
        self.beam = beam
        if isinstance(graph, GraphIndex):
            self.nbr_mat, self.degrees = graph.neighbor_matrix()
        else:
            self.nbr_mat, self.degrees = graph
            if self.nbr_mat.ndim != 2 or self.degrees.ndim != 1:
                raise ValueError("adjacency pair must be (2-D matrix, 1-D degrees)")
        self._nbr_col = np.arange(self.nbr_mat.shape[1])
        if n_visible is not None and n_visible <= 0:
            raise ValueError("n_visible must be positive")
        self.n_visible = n_visible
        # Tombstone mask (streaming indexes): expansion never admits a dead
        # vertex, so deleted points cannot appear in any candidate list —
        # "no tombstone in top-k" holds by construction rather than by a
        # post-hoc filter.  Entry points must themselves be alive.
        if alive_mask is not None:
            alive_mask = np.asarray(alive_mask, dtype=bool)
            if alive_mask.ndim != 1 or alive_mask.shape[0] < self.nbr_mat.shape[0]:
                raise ValueError("alive_mask must cover every vertex")
        self.alive_mask = alive_mask
        self.dim = int(self.points.shape[1])
        R = self.row_query.size
        L = cand_capacity
        self.R, self.L = R, L
        if metric == "l2":
            # Cached squared norms turn every per-step distance batch into
            # the norms expansion (one fewer full-width pass than the diff
            # form; see pair_distances).  Kept in codec mode too: the exact
            # re-rank pass reuses the query norms.
            self._pnorm = (
                np.einsum("ij,ij->i", self.points, self.points)
                if point_norms is None else point_norms
            )
            self._qnorm = np.einsum("ij,ij->i", self.queries, self.queries)
        else:
            self._pnorm = self._qnorm = None
        # One pair kernel for every precision.  Quantized traversal
        # (repro.search.precision): per-hop distances come from the codec's
        # compressed kernel, whose per-query dispatch state (scaled queries)
        # is built once here, and trace steps record the
        # codec's per-point work width and precision tag so the cost model
        # prices them correctly.
        self.codec = codec
        if codec is not None:
            self._kernel = codec.make_kernel(codec.query_state(self.queries))
            self._trace_dim = int(codec.trace_dim)
            self._precision = precision_code(codec.precision)
        else:
            self._kernel = PairKernel(
                self.queries, self.points, metric, self._qnorm, self._pnorm
            )
            self._trace_dim = self.dim
            self._precision = precision_code("float32")
        # Exact work counters (beside visited.probes / sets): pairs the
        # kernel scored, and pairs that passed the bound filter into a merge.
        self.pairs_scored = 0
        self.pairs_merged = 0
        #: ``rounds_by_active[a]`` — lockstep rounds that stepped ``a`` rows;
        #: it sums to the rounds run, and with a per-round time it splits a
        #: run's cost into its per-round floor and its per-row work
        self.rounds_by_active = np.zeros(R + 1, dtype=np.int64)
        self.cand_ids = np.full((R, L), -1, dtype=np.int64)
        self.cand_d = np.full((R, L), np.inf, dtype=np.float32)
        # Open = kept and not yet expanded; padding is never open (a merged
        # distance is always finite: the bound filter rejects inf).
        self.cand_open = np.zeros((R, L), dtype=bool)
        self.sizes = np.zeros(R, dtype=np.int64)
        # Flat views for one-call gathers / scatters by cell index, and each
        # row's worst kept distance (the bound filter's threshold).
        self._ids_flat = self.cand_ids.reshape(-1)
        self._d_flat = self.cand_d.reshape(-1)
        self._open_flat = self.cand_open.reshape(-1)
        self._worst = self.cand_d[:, L - 1]
        #: the rows still searching, ascending
        self._act = np.zeros(0, dtype=np.int64)
        self._iota = np.arange(R, dtype=np.int64)
        self._row_base = np.arange(R + 1, dtype=np.int64) * L
        self._beam_cols = np.arange(beam.beam_width if beam else 1)
        # One CTA per query in query order: a row is its own visited row
        # and query index, so no per-round row_query gather.
        self._rows_are_queries = bool(
            R == queries.shape[0] and np.array_equal(self.row_query, self._iota)
        )
        self.visited = BatchedVisited(queries.shape[0], self.points.shape[0])
        # Op trace, columnar: one chunk of count arrays per lockstep round,
        # the exact re-rank epilogue one more chunk.
        self._trace = TraceBuilder(R) if record_trace else None
        self._result_len = np.zeros(R, dtype=np.int32)
        # Optional expansion log: per step, the (row, id, dist) triples of
        # the vertices expanded that cycle.  NSG construction consumes this
        # — its per-vertex candidate pool is the *search path* (everything
        # expanded en route from the navigating node), not the final
        # candidate list.
        self.expansions: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = (
            [] if record_expansions else None
        )
        # Merge block: old lists in columns [0, L), a round's new pairs in
        # [L, L + W); W grows only when a round's widest row exceeds it.
        self._merge_w = 0
        self._merge_d = self._merge_ids = self._merge_open = None
        self._seed(row_entries)

    # ------------------------------------------------------------- seeding
    def _seed(self, row_entries: list[np.ndarray] | np.ndarray) -> None:
        R = self.R
        if R == 0:
            return
        if isinstance(row_entries, np.ndarray) and row_entries.ndim == 2:
            # Fixed-width entry matrix: one row-wise sort + shift-compare
            # replays the per-row np.unique walk (sorted, duplicates
            # dropped) without 2R small-array calls.
            if row_entries.shape[1] == 0:
                raise ValueError("need at least one entry point")
            mat = np.sort(row_entries.astype(np.int64, copy=False), axis=1)
            keep = np.ones(mat.shape, dtype=bool)
            keep[:, 1:] = mat[:, 1:] != mat[:, :-1]
            counts = keep.sum(axis=1)
            rr, cc = np.nonzero(keep)
            rows = rr.astype(np.int64)
            ids = mat[rr, cc]
        else:
            ents = [np.unique(np.asarray(e, dtype=np.int64)) for e in row_entries]
            for e in ents:
                if e.size == 0:
                    raise ValueError("need at least one entry point")
            counts = np.array([e.size for e in ents], dtype=np.int64)
            rows = np.repeat(np.arange(R, dtype=np.int64), counts)
            ids = np.concatenate(ents)
        fresh = self.visited.test_and_set(self.row_query.take(rows), ids).nonzero()[0]
        rows, ids = rows.take(fresh), ids.take(fresh)
        new_counts = self._score_and_merge(self._iota, rows, rows, ids)
        self._act = (self.sizes > 0).nonzero()[0]
        if self._trace is not None:
            self._trace.add(
                self._iota,
                n_visited_checks=counts,
                n_new_points=new_counts,
                step_dim=self._trace_dim,
                sort_size=new_counts,
                did_sort=new_counts > 1,
                best_dist=np.where(self.sizes > 0, self.cand_d[:, 0], np.nan),
                precision=self._precision,
            )

    # ------------------------------------------------------------- merging
    def _score_and_merge(
        self, act: np.ndarray, loc: np.ndarray, rows: np.ndarray, ids: np.ndarray
    ) -> np.ndarray | None:
        """Score fresh pairs with one blocked kernel call and fold the ones
        that can survive into their rows' candidate lists.

        ``act`` are the round's rows; pair ``j`` belongs to row ``rows[j] =
        act[loc[j]]``.  Pairs must be sorted by row with per-row fetch order
        preserved — that order is the stable-merge tie order.  Returns the
        per-``act`` counts of pairs *scored* — what the op trace records
        (``n_new_points``, ``sort_size``) — or ``None`` when not tracing.
        """
        scored = (
            None if self._trace is None else np.bincount(loc, minlength=act.size)
        )
        if ids.size == 0:
            return scored
        dists = self._kernel(
            rows if self._rows_are_queries else self.row_query.take(rows), ids
        )
        self.pairs_scored += int(ids.size)
        # Bound filter: a pair at or beyond its row's current worst slot can
        # never survive the stable merge truncation (old entries win ties),
        # so dropping it up front is bit-identical while shrinking the merge
        # width.  Pools not yet full have an inf sentinel there, which keeps
        # every finite pair; a full pool stays at L — `sizes` never sees the
        # filter.
        keep = (dists < self._worst.take(rows)).nonzero()[0]
        if keep.size < ids.size:
            if keep.size == 0:
                return scored
            loc, ids, dists = loc.take(keep), ids.take(keep), dists.take(keep)
        self.pairs_merged += int(ids.size)
        self._merge_pairs(act, loc, ids, dists)
        return scored

    def _merge_pairs(
        self,
        act: np.ndarray,
        loc: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        """Fold scored pairs into their candidate lists (sorted, truncated,
        old-before-new / fetch-order tie resolution); pair ``j`` belongs to
        row ``act[loc[j]]``."""
        L = self.L
        per_row = np.bincount(loc, minlength=act.size)
        mloc = per_row.nonzero()[0]
        counts = per_row.take(mloc)
        mrows = act.take(mloc)
        maxc = int(np.maximum.reduce(counts))
        if maxc > self._merge_w:
            self._merge_w = maxc
            cells = self.R * (L + maxc)
            self._merge_d = np.empty(cells, dtype=np.float32)
            self._merge_ids = np.empty(cells, dtype=np.int64)
            self._merge_open = np.empty(cells, dtype=bool)
        w = L + maxc
        cells = mloc.size * w
        m_d = self._merge_d[:cells].reshape(-1, w)
        self.cand_d.take(mrows, axis=0, out=m_d[:, :L])
        self.cand_ids.take(
            mrows, axis=0, out=self._merge_ids[:cells].reshape(-1, w)[:, :L]
        )
        self.cand_open.take(
            mrows, axis=0, out=self._merge_open[:cells].reshape(-1, w)[:, :L]
        )
        m_d[:, L:] = np.inf
        # Scatter each row's pairs behind its old list in fetch order: pair
        # j lands at cell (row start + L + j - the row's first pair).  Only
        # the distance pads need writing: a row's old pads (inf, -1, closed)
        # sort ahead of its new ones, so a new pad is never kept.
        row_start = np.arange(0, cells, w, dtype=np.int64)
        first = counts.cumsum()
        first -= counts
        shift = row_start - first
        shift += L
        cell = shift.repeat(counts)
        cell += np.arange(ids.size, dtype=np.int64)
        self._merge_d.put(cell, dists)
        self._merge_ids.put(cell, ids)
        self._merge_open.put(cell, True)
        # One stable row-wise sort: old entries are already sorted and come
        # first, so ties resolve old-before-new and new-in-fetch-order —
        # identical to the scalar merge.
        order = np.add(  # -> flat cell index, contiguous for the gathers
            m_d.argsort(axis=1, kind="stable")[:, :L], row_start[:, None]
        )
        self.cand_d[mrows] = self._merge_d.take(order)
        self.cand_ids[mrows] = self._merge_ids.take(order)
        self.cand_open[mrows] = self._merge_open.take(order)
        size = self.sizes.take(mrows)
        size += counts
        np.minimum(size, L, out=size)
        self.sizes[mrows] = size

    # ------------------------------------------------------------ stepping
    def step_all(self) -> bool:
        """One maintenance cycle for every active row; False when all done.

        Every array a round builds is sized by its active rows, picks and
        pairs — none by ``R``."""
        act = self._act
        if act.size == 0:
            return False
        L = self.L
        open_ = self.cand_open.take(act, axis=0)
        off = open_.argmax(axis=1)
        first = act * L
        first += off  # flat cell of each row's first open entry
        has = self._open_flat.take(first)
        if np.count_nonzero(has) < act.size:  # exhausted rows finish, no record
            act = self._act = act.compress(has)
            if act.size == 0:
                return False
            off, first = off.compress(has), first.compress(has)
            open_ = open_.compress(has, axis=0)
        A = act.size
        self.rounds_by_active[A] += 1
        if self.beam is None:
            # One expansion per row: the first open entry.
            n_exp, pick_loc, cells = 1, self._iota[:A], first
        else:
            # Each row's first `width` open entries: rank the open cells of
            # the (A, L) mask against each row's first one.
            width = np.where(off >= self.beam.offset_beam, self.beam.beam_width, 1)
            flat = open_.reshape(-1).nonzero()[0]  # np.flatnonzero, unwrapped
            bounds = flat.searchsorted(self._row_base[:A + 1])
            start = bounds[:-1]
            n_exp = bounds[1:] - start
            np.minimum(n_exp, width, out=n_exp)
            pick_loc, j = (self._beam_cols < n_exp[:, None]).nonzero()
            j += start.take(pick_loc)
            cells = flat.take(j)  # row-major, offset order; to global cells:
            cells += (first - flat.take(start)).take(pick_loc)
        pick_ids = self._ids_flat.take(cells)
        self._open_flat[cells] = False
        if self.expansions is not None:
            # Gathered before any merge moves an entry.
            self.expansions.append(
                (act.take(pick_loc), pick_ids, self._d_flat.take(cells))
            )

        # Neighbour expansion: one gather, flattened row-major so the global
        # pair order is (row asc, pick order, storage order) — the scalar
        # concatenation order.
        deg = self.degrees.take(pick_ids)
        nb = self.nbr_mat.take(pick_ids, axis=0)
        valid = self._nbr_col < deg[:, None]
        if self.n_visible is not None:
            # Construction-time prefix mask: edges into not-yet-inserted
            # vertices are invisible to this wave's searches.
            valid &= nb < self.n_visible
        if self.alive_mask is not None:
            # Tombstone mask: edges into deleted vertices are traversable
            # metadata in the adjacency but never expanded.  Padding slots
            # hold -1 (read as the mask's last entry) and are already
            # invalid.
            valid &= self.alive_mask.take(nb)
        if self.n_visible is not None or self.alive_mask is not None:
            deg = np.add.reduce(valid, axis=1)
        nbrs = nb[valid].astype(np.int64, copy=False)
        pair_loc = pick_loc.repeat(deg)
        pair_rows = act.take(pair_loc)
        tracing = self._trace is not None
        if tracing:  # what the trace needs from before the merge
            selected_dist = self._d_flat.take(first)
            before = self.sizes.take(act)

        fresh = self.visited.test_and_set(
            pair_rows if self._rows_are_queries
            else self.row_query.take(pair_rows),
            nbrs,
        ).nonzero()[0]
        n_new = self._score_and_merge(
            act, pair_loc.take(fresh), pair_rows.take(fresh), nbrs.take(fresh)
        )

        if tracing:
            fetched = deg if self.beam is None else np.bincount(
                pick_loc, weights=deg, minlength=A
            ).astype(np.int64)
            did_sort = n_new > 0
            sort_size = before + n_new
            sort_size *= did_sort
            self._trace.add(
                act,
                select_offset=off,
                n_expanded=n_exp,
                n_neighbors_fetched=fetched,
                n_visited_checks=fetched,
                n_new_points=n_new,
                step_dim=self._trace_dim,
                sort_size=sort_size,
                cand_list_len=before,
                did_sort=did_sort,
                best_dist=selected_dist,
                precision=self._precision,
            )
        return True

    def run(self, max_rounds: int, what: str = "search") -> None:
        """Drive all rows to completion (same budgets as the scalar path)."""
        rounds = 0
        while self.step_all():
            rounds += 1
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"{what} exceeded step budget — disconnected graph?"
                )

    # ------------------------------------------------------------- results
    def pools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw candidate pools: ``(ids, dists, sizes)`` SoA views.

        ``ids``/``dists`` are ``(R, L)`` (-1 / inf padded past each row's
        size), sorted ascending by distance.  The construction backends
        read whole pools instead of per-row top-k results.
        """
        return self.cand_ids, self.cand_d, self.sizes

    def expansion_pools(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded per-row expansion logs: ``(ids, dists)``, ``(R, W)``.

        ``W`` is the largest per-row expansion count; rows are in
        expansion order, -1 / inf padded past each row's count.  Requires
        ``record_expansions=True``.  This is the lockstep equivalent of
        the scalar search's "every expanded vertex" path — each row only
        ever expands a vertex once (the checked flag), so the log is
        duplicate-free per row.
        """
        if self.expansions is None:
            raise RuntimeError("engine built without record_expansions")
        if not self.expansions:
            return (
                np.full((self.R, 0), -1, dtype=np.int64),
                np.full((self.R, 0), np.inf, dtype=np.float32),
            )
        rows = np.concatenate([e[0] for e in self.expansions])
        ids = np.concatenate([e[1] for e in self.expansions])
        dists = np.concatenate([e[2] for e in self.expansions])
        # Stable sort by row keeps within-row expansion order.
        order = np.argsort(rows, kind="stable")
        rows, ids, dists = rows[order], ids[order], dists[order]
        counts = np.bincount(rows, minlength=self.R).astype(np.int64)
        W = int(counts.max())
        offsets = np.zeros(self.R, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        pos = np.arange(rows.size, dtype=np.int64) - offsets[rows]
        out_ids = np.full((self.R, W), -1, dtype=np.int64)
        out_d = np.full((self.R, W), np.inf, dtype=np.float32)
        out_ids[rows, pos] = ids
        out_d[rows, pos] = dists
        return out_ids, out_d

    def topk(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's best ``k``, straight from the pools: ``(R, k)`` ids
        and distances (copies, -1 / inf padded past ``counts``) and the
        per-row ``counts = min(k, size)``, which the trace records as each
        row's result length."""
        w = min(k, self.L)
        ids = np.full((self.R, k), -1, dtype=np.int64)
        dists = np.full((self.R, k), np.inf, dtype=np.float32)
        ids[:, :w] = self.cand_ids[:, :w]
        dists[:, :w] = self.cand_d[:, :w]
        counts = np.minimum(self.sizes, k)
        if self._trace is not None:
            self._result_len[:] = counts
        return ids, dists, counts

    def rerank(
        self,
        rows: np.ndarray,
        pools: np.ndarray,
        pool_counts: np.ndarray,
        k: int,
        set_result_len: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The quantized-search epilogue: exact re-rank of ``pools[i,
        :pool_counts[i]]`` against row ``rows[i]``'s query, plus the priced
        float32 step on that row's trace (the engine twin of the scalar
        ``tests/reference/intra_cta.py::rerank_into_trace``).  ``pools`` is
        ``(len(rows), >= k)``, -1 padded; returns padded ``(len(rows), k)``
        ids / distances and the per-row result counts.

        The step is recorded on the query's CTA 0.  A one-CTA search also
        owns that row's ``result_len`` (``set_result_len``); with more CTAs
        each CTA keeps its own result length.
        """
        # exact_rerank for every row at once: the float32 pair kernel over
        # the valid pool cells (its cached-norms expansion is the one
        # exact_rerank reaches through pair_distances), then one stable
        # row-wise sort — pads hold inf / -1 and stay at the tail.
        kernel = PairKernel(
            self.queries, self.points, self.metric, self._qnorm, self._pnorm
        )
        valid = np.arange(pools.shape[1]) < pool_counts[:, None]
        exact = np.full(pools.shape, np.inf, dtype=np.float32)
        exact[valid] = kernel(
            np.repeat(self.row_query[rows], pool_counts), pools[valid]
        )
        order = np.argsort(exact, axis=1, kind="stable")[:, :k]
        ids = np.take_along_axis(pools, order, axis=1)
        dists = np.take_along_axis(exact, order, axis=1)
        counts = np.minimum(pool_counts, k)
        if self._trace is not None:
            # Full-width exact distances plus one sort of the pool.
            self._trace.add(
                rows,
                n_new_points=pool_counts,
                step_dim=self.dim,
                sort_size=pool_counts,
                did_sort=pool_counts > 1,
                best_dist=np.where(counts > 0, dists[:, 0], np.nan),
                precision=precision_code("float32"),
            )
            if set_result_len:
                self._result_len[rows] = counts
        return ids, dists, counts

    def trace_block(self, n_ctas: int, dim: int, k: int) -> TraceBlock | None:
        """The batch's op trace (``None`` when built without
        ``record_trace``): rows grouped ``n_ctas`` to a query, each row's
        steps in execution order — seed, rounds, re-rank."""
        if self._trace is None:
            return None
        return self._trace.build(n_ctas, dim, k, self._result_len)


class BatchResults(Sequence):
    """Per-query results of one lockstep batch plus the batch's op trace.

    The batch is held as it leaves the engine: ``padded_ids`` /
    ``padded_dists`` are ``(B, k)``, -1 / inf past ``counts[i]``; ``ids`` /
    ``dists`` give the per-query trimmed rows.  ``traces`` is the batch's
    :class:`~repro.gpusim.trace.TraceBlock` (``None`` when tracing was
    off) — what the serve path prices.  Indexing gives a
    :class:`SearchResult` whose ``trace`` is the row-object view of that
    query (a ``QueryTrace`` of one ``CTATrace`` per CTA), materialized on
    access, and whose ``extra["per_cta"]`` holds the per-CTA lists the
    merge consumed, cut from ``cta_lists`` on access.
    """

    def __init__(
        self,
        ids: np.ndarray,
        dists: np.ndarray,
        counts: np.ndarray,
        traces: TraceBlock | None,
        cta_lists: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        self.padded_ids = ids
        self.padded_dists = dists
        self.counts = counts
        self.traces = traces
        self._cta_lists = cta_lists

    @property
    def ids(self) -> list[np.ndarray]:
        return [row[:m] for row, m in zip(self.padded_ids, self.counts)]

    @property
    def dists(self) -> list[np.ndarray]:
        return [row[:m] for row, m in zip(self.padded_dists, self.counts)]

    @classmethod
    def concat(cls, parts: list["BatchResults"]) -> "BatchResults":
        """The parts' queries one after another (one part passes through)."""
        if len(parts) == 1:
            return parts[0]
        traces = [p.traces for p in parts]
        lists = [p._cta_lists for p in parts]
        return cls(
            np.concatenate([p.padded_ids for p in parts]),
            np.concatenate([p.padded_dists for p in parts]),
            np.concatenate([p.counts for p in parts]),
            None if traces[0] is None else TraceBlock.concat(traces),
            tuple(np.concatenate(a) for a in zip(*lists)),
        )

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        m = self.counts[i]
        ids, dists = self.padded_ids[i, :m], self.padded_dists[i, :m]
        trace = None if self.traces is None else self.traces[i]
        l_ids, l_d, l_counts = (a[i] for a in self._cta_lists)
        per_cta = [(l_ids[c, :n], l_d[c, :n]) for c, n in enumerate(l_counts)]
        return SearchResult(ids, dists, trace, {"per_cta": per_cta})


def _entry_rows(entries) -> np.ndarray | list[np.ndarray]:
    """Per-row entry arrays, stacked into an ``(R, width)`` matrix when every
    row has the same width (the engine then seeds with one row-wise sort
    instead of one ``np.unique`` per row); the ragged case stays a list."""
    rows = [np.atleast_1d(np.asarray(e, dtype=np.int64)) for e in entries]
    if rows and rows[0].size and all(e.size == rows[0].size for e in rows):
        return np.stack(rows)
    return rows


def batched_multi_cta_search(
    points: np.ndarray,
    graph: GraphIndex | tuple[np.ndarray, np.ndarray],
    queries: np.ndarray,
    k: int,
    l_total: int,
    n_ctas: int,
    metric: str = "l2",
    beam: BeamConfig | None = None,
    entries: list[list[np.ndarray]] | np.ndarray | None = None,
    record_trace: bool = True,
    codec=None,
    rerank_mult: int = DEFAULT_RERANK_MULT,
    alive_mask: np.ndarray | None = None,
    point_norms: np.ndarray | None = None,
    pool: int = 0,
) -> BatchResults:
    """Search ``B`` queries at ``n_ctas`` CTAs each, all CTA rows in one
    lockstep batch; one CTA is the single-CTA search.

    ``entries[q][c]`` seeds CTA ``c`` of query ``q`` (a ``(B, n_ctas, e)``
    array, or nested lists); when omitted each CTA seeds
    :func:`seeds_per_cta` of its list from :func:`query_entries` over
    every point.

    With a ``codec`` the per-CTA lists are merged at ``rerank_mult × k``
    width and the merged pool is re-scored exactly; the re-rank step is
    recorded on CTA 0's trace (host hands the pool back to one CTA).  A
    ``pool`` wider than that merges each query's whole CTA lists to its
    best ``pool`` instead (an insertion search's link pool; float32
    only): the results are then ``pool`` wide, and their first ``k`` are
    the ``k``-wide merge's.

    ``graph`` may be a padded ``(adjacency, degrees)`` pair, and
    ``alive_mask`` / ``point_norms`` pass to the engine, as a
    :class:`~repro.graphs.dynamic.DynamicGraph` searches its live rows.

    Entries are named for the whole batch before it is cut into per-thread
    engines, so the cut moves no result, list or trace bit.
    """
    if n_ctas <= 0:
        raise ValueError("n_ctas must be positive")
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    B = queries.shape[0]
    l_cta = per_cta_capacity(l_total, n_ctas, k)
    if entries is None:
        entries = query_entries(queries, n_ctas, seeds_per_cta(l_cta),
                                np.arange(points.shape[0]))
    if isinstance(entries, np.ndarray):
        if entries.shape[:2] != (B, n_ctas):
            raise ValueError("need one entry array per CTA")
        rows = entries.reshape(B * n_ctas, -1)
    else:
        if len(entries) != B or any(len(e) != n_ctas for e in entries):
            raise ValueError("need one entry array per CTA")
        rows = _entry_rows([c for e in entries for c in e])
    engines = [
        LockstepEngine(
            points, graph, queries[lo:hi],
            np.repeat(np.arange(hi - lo, dtype=np.int64), n_ctas),
            rows[lo * n_ctas:hi * n_ctas], l_cta,
            metric=metric, beam=beam, record_trace=record_trace, codec=codec,
            alive_mask=alive_mask, point_norms=point_norms,
        )
        for lo, hi in thread_chunks(B, n_ctas)
    ]
    rcap = max(k, rerank_mult * k) if codec is not None else k
    if pool > rcap and codec is not None:
        raise ValueError("a pool wider than the re-rank pool needs float32")

    def finish(eng: LockstepEngine) -> BatchResults:
        eng.run(200 * l_cta * n_ctas + 1000)
        # CPU TopK merge (§IV-B): the per-CTA lists are contiguous in the
        # pools, so an engine's queries are one merge_topk_batch.
        b = eng.queries.shape[0]
        l_ids, l_d, l_counts = (a.reshape(b, n_ctas, *a.shape[1:]) for a in eng.topk(rcap))
        if pool > rcap:  # a heap merge's first rcap pops ignore list tails
            ids, dists, counts = merge_topk_batch(
                *(a.reshape(b, n_ctas, -1) for a in eng.pools()[:2]), pool)
        else:
            ids, dists, counts = merge_topk_batch(l_ids, l_d, rcap)
        if codec is not None:
            # One CTA is the single-CTA search: it owns its result length.
            ids, dists, counts = eng.rerank(
                np.arange(0, b * n_ctas, n_ctas), ids, counts, k,
                set_result_len=n_ctas == 1,
            )
        return BatchResults(
            ids, dists, counts, eng.trace_block(n_ctas, eng.dim, k),
            (l_ids, l_d, l_counts),
        )

    return BatchResults.concat(on_threads(finish, engines))

"""Streaming index updates: vectorized insert/delete waves over a graph index.

Online serving systems (the paper's target deployment) rarely get a frozen
corpus; this module adds the "built for change" update story on top of any
:class:`~repro.graphs.base.GraphIndex`, on the builders' wave machinery:

* **insert waves** — :meth:`DynamicGraph.insert_batch` appends a whole wave
  of points, lockstep-searches them against the visible prefix (the same
  :class:`~repro.search.batched.LockstepEngine` the builders
  use, with internal doubling sub-waves when the wave dwarfs the index),
  links the nearest survivors bidirectionally and degree-caps in bulk
  (:func:`~repro.graphs.build_batched._add_links`);
* **delete waves** — :meth:`delete_batch` tombstones in O(wave): dead
  vertices are masked *at expansion* (the engine's ``alive_mask``), so a
  deleted point can never enter a candidate list — "no tombstone in top-k"
  holds by construction, not by a post-hoc filter;
* **compaction** — :meth:`compact` runs the deferred FreshDiskANN repair
  in bulk: every live in-neighbour of a tombstone drops the dead edge and
  inherits the tombstone's live out-neighbours (dedup, distance-trim),
  dead rows are zeroed, and the cached frozen snapshot is dropped via
  :meth:`~repro.graphs.base.GraphIndex.invalidate_cache` so stale padded
  neighbour matrices cannot be served.  Recall sags between a delete wave
  and its compaction — that sag is exactly what the serve-while-update
  degradation SLOs (:mod:`repro.streaming`) measure;
* **search** — :meth:`search` / :meth:`search_batch` run the lockstep
  engine directly on the live padded arrays (no freeze needed), each query
  as ``n_ctas`` CTAs of ALGAS's multi-CTA split (one by default), and so
  do the insert waves' searches.  Like the
  static systems, the graph takes its traversal ``precision`` and
  ``rerank_mult`` once, at construction: a quantized graph traverses on
  one codec, fitted at its first search, *extended* on insert waves and
  re-trained when codebook drift is detected (:meth:`codec_status`).  The
  scalar greedy loop it is held to lives with the tests
  (``tests/oracles.py``).  A read batch may carry the next insert wave's
  points (``pending_inserts=``): their insertion searches then ride in the
  same lockstep run, and the insert links from those pools if nothing
  changed in between.

Vertex ids are stable for the lifetime of the structure (tombstoned ids
are never reused); only :meth:`freeze` remaps to a dense snapshot.  Every
mutation bumps :attr:`version` — the epoch counterpart of the batcher's
slot-epoch guards, letting serving layers detect a graph that changed
between dispatches.
"""

from __future__ import annotations

import copy

import numpy as np

from ..data.metrics import pair_distances, query_distances, require_finite, require_unit, row_blocks
from ..gpusim.trace import TraceBuilder
from ..search.batched import (
    BeamConfig,
    batched_multi_cta_search,
    per_cta_capacity,
    query_entries,
    seeds_per_cta,
)
from ..search.precision import DEFAULT_RERANK_MULT, PRECISIONS, make_codec
from .base import GraphIndex
from .build_batched import _add_links, _select_links, occlusion_prune_mask
from .utils import _compact_rows, medoid

__all__ = ["DynamicGraph"]

#: Re-train when new points reconstruct this many times worse than the
#: codec's training-time baseline (see :meth:`DynamicGraph._extend_codec`).
DEFAULT_DRIFT_THRESHOLD = 4.0


class DynamicGraph:
    """Mutable graph over a growable point set (SoA, capacity-doubling)."""

    def __init__(
        self,
        points: np.ndarray,
        graph: GraphIndex,
        metric: str = "l2",
        max_degree: int | None = None,
        ef: int = 48,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        link_select: str = "occlusion",
        precision: str = "float32",
        rerank_mult: int = DEFAULT_RERANK_MULT,
    ):
        points = np.asarray(points, dtype=np.float32)
        if points.shape[0] != graph.n_vertices:
            raise ValueError("points and graph size mismatch")
        require_finite(points, "points")
        sqnorms = np.einsum("ij,ij->i", points, points)
        if metric == "cosine":
            require_unit(sqnorms, "points")
        if link_select not in ("closest", "occlusion"):
            raise ValueError(
                f"unknown link_select {link_select!r}; "
                f"expected 'closest' or 'occlusion'"
            )
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}"
            )
        if rerank_mult < 1:
            raise ValueError("rerank_mult must be >= 1")
        #: traversal substrate of every search (repro.search.precision)
        #: and the exact re-rank pool multiplier of a quantized one
        self.precision = precision
        self.rerank_mult = rerank_mult
        #: fresh-row link policy for insert waves: ``"occlusion"`` runs the
        #: MRNG diversifying prune over each new vertex's candidate pool
        #: (edges survive churn better — see the recall-under-churn
        #: regression test), ``"closest"`` keeps the plain NSW nearest-m.
        self.link_select = link_select
        self.metric = metric
        self.max_degree = max_degree or max(graph.max_degree, 4)
        self.ef = ef
        self.drift_threshold = drift_threshold
        n, dim = points.shape
        cap = max(n, 16)
        self._pts = np.zeros((cap, dim), dtype=np.float32)
        self._pts[:n] = points
        #: squared L2 norm of every staged row, extended with each insert
        #: wave: the lockstep engine's point norms and the epoch grader's
        #: ``|p|^2`` term, never recomputed (a row's einsum norm has the
        #: same bits alone or in a batch)
        self._sqnorms = np.zeros(cap, dtype=np.float32)
        self._sqnorms[:n] = sqnorms
        self._adj = np.full((cap, self.max_degree), -1, dtype=np.int64)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._alive[:n] = True
        for u in range(n):
            nbrs = np.asarray(graph.neighbors(u), dtype=np.int64)[: self.max_degree]
            self._adj[u, : nbrs.size] = nbrs
            self._counts[u] = nbrs.size
        self._n_total = n
        self._n_alive = n
        self._pending_dead: list[int] = []
        self._frozen: tuple[np.ndarray, GraphIndex, np.ndarray] | None = None
        self._codec = None
        #: reconstruction error of the corpus the codec was fitted on
        self._codec_baseline = 0.0
        #: (version, (n_ctas, k), points, pool ids, pool dists) of the insert rows
        #: of the last fused search_batch, for the insert_batch that follows it
        self._pending = None
        self.version = 0
        self.compactions = 0
        self.codec_retrains = 0
        # Enter at the medoid: an arbitrary vertex may sit in a poorly
        # reachable pocket of the graph.
        self._entry = int(medoid(points, metric)) if n else None

    # ------------------------------------------------------------- queries
    @property
    def n_total(self) -> int:
        """All vertices ever inserted (including tombstones)."""
        return self._n_total

    @property
    def n_alive(self) -> int:
        return self._n_alive

    @property
    def n_tombstones(self) -> int:
        """Tombstones whose edges have not been compacted away yet."""
        return len(self._pending_dead)

    @property
    def tombstone_fraction(self) -> float:
        """Uncompacted tombstones as a fraction of the live set."""
        return len(self._pending_dead) / max(self._n_alive, 1)

    def is_alive(self, v: int) -> bool:
        return bool(self._alive[v])

    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive[: self._n_total]).astype(np.int64)

    def points_matrix(self) -> np.ndarray:
        return self._pts[: self._n_total].copy()

    # -------------------------------------------------------------- search
    def search(
        self, query: np.ndarray, k: int, l: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy search; tombstones are masked at expansion (never routed,
        never returned).  A one-row :meth:`search_batch`."""
        ids, dists, _ = self.search_batch(query, k, l=l)
        m = int((ids[0] >= 0).sum())
        return ids[0, :m].copy(), dists[0, :m].copy()

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        l: int | None = None,
        record_trace: bool = False,
        pending_inserts: np.ndarray | None = None,
        n_ctas: int = 1,
    ):
        """Lockstep batch search over the *live* structure (no freeze).

        Returns ``(ids, dists, traces)``: ``(B, k)`` arrays padded with
        -1 / inf past each row's result count, and the batch's
        :class:`~repro.gpusim.trace.TraceBlock` of ``n_ctas`` CTAs a query
        for cost-model pricing (``None`` when ``record_trace`` is off).

        A query runs as ``n_ctas`` CTAs, ALGAS's multi-CTA split (§IV-B):
        each keeps :func:`~repro.search.batched.per_cta_capacity` of the
        candidate capacity ``max(l or max(ef, k), k)``, all share the
        query's visited bits, and the host merges their lists
        (:func:`~repro.search.topk.merge_topk_batch`).  Every CTA seeds half
        its list (:func:`~repro.search.batched.seeds_per_cta`) at live
        vertices that a hash of the query's bytes names
        (:func:`~repro.search.batched.query_entries`) among those holding
        at least half their degree budget, CTA 0's first seed at the live
        medoid, so a row's answer depends on its query and the graph only.
        One CTA is the single-CTA search.

        ``pending_inserts`` are the points the caller will hand to the next
        :meth:`insert_batch` at the same ``n_ctas`` and ``k``.  When their
        insertion searches can share the reads' run — float32 traversal,
        the reads' per-CTA list capacity, and a wave that fits one sub-wave
        — they run as extra rows of this search (a stream epoch then pays
        one set of rounds and one TopK merge, not two) and
        :meth:`insert_batch` links from their pools, provided the graph has
        not changed in between and it receives the same points.  Otherwise
        the insert searches on its own, as without the argument.  The
        returned ids, distances and trace cover the ``queries`` rows only.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if n_ctas <= 0:
            raise ValueError(f"n_ctas must be positive, got {n_ctas}")
        self._pending = None
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        B, dim = queries.shape[0], self._pts.shape[1]
        if queries.ndim != 2 or queries.shape[1] != dim:
            # An empty read batch is fine; a wrong width is not.
            raise ValueError(
                f"query batch of shape {queries.shape} does not fit a corpus "
                f"of width {dim}"
            )
        if self._n_alive == 0 or B == 0:
            out_ids = np.full((B, k), -1, dtype=np.int64)
            out_d = np.full((B, k), np.inf, dtype=np.float32)
            empty = TraceBuilder(B * n_ctas).build(
                n_ctas, dim, k, np.zeros(B * n_ctas, dtype=np.int32))
            return out_ids, out_d, empty if record_trace else None
        codec = self.traversal_codec()
        l_total = max(l or max(self.ef, k), k)
        fused = None
        if pending_inserts is not None:
            fused, _ = self._staged_points(pending_inserts)
            if not (
                codec is None
                and per_cta_capacity(l_total, n_ctas, k)
                == per_cta_capacity(self._insert_ef(), n_ctas, k)
                and 0 < fused.shape[0] <= max(self._n_alive, 256)
            ):
                fused = None
        if fused is None:
            res = self._search(queries, k, l_total, n_ctas, record_trace, codec)
            return res.padded_ids, res.padded_dists, res.traces
        # One run and one TopK merge for the epoch, at the insert pools'
        # width; the reads take its first k entries.
        ins = self._insert_ef()
        res = self._search(np.concatenate([queries, fused]), k, l_total, n_ctas,
                           record_trace, None, pool=ins)
        ids, dists = res.padded_ids, res.padded_dists
        self._pending = (self.version, (n_ctas, k), fused, ids[B:, :ins], dists[B:, :ins])
        block = None if res.traces is None else res.traces[:B]
        return ids[:B, :k], dists[:B, :k], block

    def _search(self, rows, k, l_total, n_ctas, record_trace, codec, pool=0):
        """``rows`` searched on the live graph at ``n_ctas`` CTAs a row
        (:func:`~repro.search.batched.batched_multi_cta_search`): every
        CTA seeds :func:`~repro.search.batched.seeds_per_cta` of its list
        at the row's hashed entries, CTA 0's first at the live medoid."""
        n = self._n_total
        l_cta = per_cta_capacity(l_total, n_ctas, k)
        entries = query_entries(rows, n_ctas, seeds_per_cta(l_cta),
                                self._entry_population())
        entries[:, 0, 0] = self._live_entry()
        return batched_multi_cta_search(
            self._pts[:n], (self._adj[:n], self._counts[:n]), rows, k, l_total,
            n_ctas, metric=self.metric,
            beam=BeamConfig.for_capacity(l_cta), entries=entries,
            record_trace=record_trace, codec=codec,
            rerank_mult=self.rerank_mult, alive_mask=self._alive[:n],
            point_norms=self._sqnorms[:n], pool=pool,
        )

    # ------------------------------------------------------------- updates
    def insert(self, point: np.ndarray) -> int:
        """Insert a single point; returns its new vertex id."""
        return int(self.insert_batch(np.asarray(point, np.float32)[None, :])[0])

    def insert_batch(
        self, points: np.ndarray, n_ctas: int = 1, k: int = 1
    ) -> np.ndarray:
        """Insert a wave of points; returns their new vertex ids.

        The wave is lockstep-searched against the visible prefix, each
        point as ``n_ctas`` CTAs split like a read of ``k`` at capacity
        ``max(ef, max_degree + 1)`` (:meth:`search_batch`; the merged CTA
        lists, cut to that beam, are the point's link pool); waves larger
        than the current index split into doubling sub-waves (each
        sub-wave sees everything inserted before it), the PR 4 builder
        schedule — so a storm-sized burst onto a small index still links
        against meaningful neighbourhoods.  When the last
        :meth:`search_batch` carried exactly these points as
        ``pending_inserts`` at the same ``n_ctas`` and ``k`` and the graph
        has not changed since, the wave links from the pools that search
        produced instead of searching again.
        """
        if n_ctas <= 0 or k <= 0:
            raise ValueError(f"n_ctas and k must be positive, got {n_ctas}, {k}")
        pts, sqnorms = self._staged_points(points)
        W = pts.shape[0]
        if W == 0:
            return np.empty(0, dtype=np.int64)
        pools = self._take_pending(pts, (n_ctas, k))
        self._mutate()
        start = self._n_total
        ids = np.arange(start, start + W, dtype=np.int64)
        self._ensure_capacity(start + W)
        self._pts[start : start + W] = pts
        self._sqnorms[start : start + W] = sqnorms
        pos = 0
        if self._n_alive == 0:
            # Bootstrap: the first point has nobody to link to.
            self._adj[start] = -1
            self._counts[start] = 0
            self._alive[start] = True
            self._n_total += 1
            self._n_alive += 1
            self._entry = start
            pos = 1
        while pos < W:
            sub = min(W - pos, max(self._n_alive, 256))
            lo = start + pos
            self._insert_wave(lo, lo + sub, (n_ctas, k), pools)
            pools = None
            pos += sub
        self._extend_codec(pts)
        return ids

    def _insert_wave(self, lo: int, hi: int, split: tuple[int, int], pools=None) -> None:
        """Link vertices ``[lo, hi)`` (points already staged) into the graph.
        ``pools`` are their insertion-search pools when a fused
        :meth:`search_batch` already ran them against this graph state;
        otherwise they search the live graph (the staged rows are past
        ``n_total``, so invisible) at the ``(n_ctas, k)`` split."""
        if pools is None:
            (n_ctas, k), ef = split, self._insert_ef()
            res = self._search(self._pts[lo:hi], k, ef, n_ctas, False, None, pool=ef)
            pools = res.padded_ids[:, :ef], res.padded_dists[:, :ef]
        pool_ids, pool_d = pools
        links = _select_links(
            self._pts, pool_ids, pool_d, self.max_degree, self.metric,
            self.link_select,
        )
        n = hi - lo
        self._adj[lo:hi] = links
        self._counts[lo:hi] = (links >= 0).sum(axis=1)
        self._alive[lo:hi] = True
        self._n_total += n
        self._n_alive += n
        rows, cols = np.nonzero(links >= 0)
        if rows.size:
            _add_links(
                self._pts, self._adj, self._counts,
                links[rows, cols], lo + rows,
                self.max_degree, self.metric, trim=self.link_select, dedup=True,
            )

    def delete(self, vid: int) -> None:
        """Tombstone ``vid`` and immediately patch its in-neighbours (the
        scalar FreshDiskANN rule — a one-element wave with eager repair)."""
        self.delete_batch([vid], patch=True)

    def delete_batch(self, ids, patch: bool = False) -> None:
        """Tombstone a wave of vertices.

        With ``patch=False`` (the streaming default) this is O(wave):
        deletion is pure masking, the dead edges stay in place as routing
        metadata until :meth:`compact` repairs them in bulk.  With
        ``patch=True`` the repair runs eagerly for this wave.
        """
        arr = np.unique(np.asarray(ids, dtype=np.int64).ravel())
        if arr.size != np.asarray(ids).size:
            raise ValueError("duplicate vertex ids in delete wave")
        if arr.size == 0:
            return
        if arr[0] < 0 or arr[-1] >= self._n_total:
            raise IndexError("vertex id out of range")
        dead_already = ~self._alive[arr]
        if dead_already.any():
            raise ValueError(
                f"vertex {int(arr[dead_already][0])} already deleted"
            )
        self._mutate()
        self._alive[arr] = False
        self._n_alive -= int(arr.size)
        if patch:
            self._patch_dead(arr)
            self._adj[arr] = -1
            self._counts[arr] = 0
        else:
            self._pending_dead.extend(int(v) for v in arr)
        if self._n_alive and (self._entry is None or not self._alive[self._entry]):
            self._entry = self._pick_entry()

    def compact(self) -> dict:
        """Deferred bulk repair: patch every live in-neighbour of pending
        tombstones, zero dead rows, drop cached snapshots.

        Returns a stats dict (``cleared``/``patched_rows``/``version``).
        Queries running concurrently (in the simulated sense: between
        dispatches) see either the pre- or post-compaction adjacency, never
        a half-written row — the batcher's slot-epoch guards plus
        :attr:`version` make the boundary observable.
        """
        self._mutate()
        self.compactions += 1
        cleared = len(self._pending_dead)
        patched = 0
        if cleared:
            dead = np.asarray(self._pending_dead, dtype=np.int64)
            patched = self._patch_dead(dead)
            self._adj[dead] = -1
            self._counts[dead] = 0
            self._pending_dead = []
        if self._n_alive and (self._entry is None or not self._alive[self._entry]):
            self._entry = self._pick_entry()
        return {
            "cleared": cleared,
            "patched_rows": patched,
            "version": self.version,
        }

    def _patch_dead(self, dead: np.ndarray) -> int:
        """FreshDiskANN repair, vectorized: live rows pointing at ``dead``
        drop those edges and inherit the dead vertices' live out-neighbours
        into the freed capacity (dedup, closest-first).

        Inherited edges only ever *fill the slots the dead edges vacated* —
        they never evict a surviving edge.  A repair that re-trims whole
        rows to keep-closest collapses the builder's diversified
        neighbourhoods into pure kNN lists and measurably sinks recall
        after large delete waves; patching gaps preserves the navigable
        structure while restoring the connectivity the tombstones routed.

        Which inherited candidates win the freed slots is decided by the
        MRNG occlusion rule with the surviving edges pinned as forced
        occluders (:func:`~repro.graphs.build_batched.occlusion_prune_mask`
        ``forced=``): a candidate already reachable through a closer kept
        neighbour is skipped, so the fills extend the row's coverage
        instead of piling onto the direction its survivors already serve.
        Against adversarial delete waves this recovers several recall
        points over closest-first fills at identical degree budgets.
        """
        n = self._n_total
        is_dead = np.zeros(n, dtype=bool)
        is_dead[dead] = True
        adjv = self._adj[:n]
        valid = adjv >= 0
        dead_edge = valid & is_dead[np.clip(adjv, 0, None)]
        rows_aff = np.flatnonzero(dead_edge.any(axis=1) & self._alive[:n])
        if rows_aff.size == 0:
            return 0
        sub = adjv[rows_aff]
        subm = dead_edge[rows_aff]
        rr, cc = np.nonzero(subm)
        d_ids = sub[rr, cc]
        # Compacted live out-lists of the dead set (dead→dead chains are
        # dropped, matching the scalar rule's alive-only inheritance).
        dpos = np.full(n, -1, dtype=np.int64)
        dpos[dead] = np.arange(dead.size)
        dead_adj = adjv[dead]
        dead_live = (dead_adj >= 0) & self._alive[np.clip(dead_adj, 0, None)]
        douts, _, dcnt = _compact_rows(dead_adj, dead_live, self._adj.shape[1])
        # Drop the dead edges first, then bulk-append the inherited ones.
        new_ids, _, ncnt = _compact_rows(sub, valid[rows_aff] & ~subm, sub.shape[1])
        self._adj[rows_aff] = new_ids
        self._counts[rows_aff] = ncnt
        k = dpos[d_ids]
        reps = dcnt[k]
        if reps.sum() == 0:
            return int(rows_aff.size)
        targets = np.repeat(rows_aff[rr], reps)
        flat_k = np.repeat(k, reps)
        off = np.repeat(np.cumsum(reps) - reps, reps)
        srcs = douts[flat_k, np.arange(targets.size) - off]
        ok = srcs != targets
        targets, srcs = targets[ok], srcs[ok]
        # Dedup (target, src) pairs, drop edges the row already has.
        key = np.unique(targets * np.int64(n) + srcs)
        targets, srcs = key // n, key % n
        del flat_k, off, ok, key  # pair-sized: only the prune's arrays stay live
        present = (self._adj[targets] == srcs[:, None]).any(axis=1)
        targets, srcs = targets[~present], srcs[~present]
        if targets.size == 0:
            return int(rows_aff.size)
        # Rank each row's inherited candidates by distance, then let the
        # occlusion prune (survivors pinned) pick the fills.  Pairs are
        # gathered and scored a row block at a time (row-wise, same bits).
        d = np.empty(targets.size, dtype=np.float32)
        for lo, hi in row_blocks(targets.size, 8 * self._pts.shape[1]):
            d[lo:hi] = pair_distances(self._pts[targets[lo:hi]],
                                      self._pts[srcs[lo:hi]], self.metric)
        order = np.lexsort((d, targets))
        t_s, s_s, d_s = targets[order], srcs[order], d[order]
        starts = np.r_[0, np.flatnonzero(np.diff(t_s)) + 1]
        group_start = np.repeat(starts, np.diff(np.r_[starts, t_s.size]))
        rank = np.arange(t_s.size) - group_start
        # Bound the prune pool: slots to fill never exceed max_degree, and
        # far-ranked candidates only matter as occluders of closer ones.
        cap = 4 * self.max_degree
        in_pool = rank < cap
        t_s, s_s, d_s, rank = t_s[in_pool], s_s[in_pool], d_s[in_pool], rank[in_pool]
        del targets, srcs, d, order, group_start, in_pool
        starts = np.r_[0, np.flatnonzero(np.diff(t_s)) + 1]
        rows = np.unique(t_s)
        rpos = np.full(n, -1, dtype=np.int64)
        rpos[rows] = np.arange(rows.size)
        S = self.max_degree
        W = S + int(rank.max()) + 1
        pool_ids = np.full((rows.size, W), -1, dtype=np.int64)
        pool_d = np.full((rows.size, W), np.inf, dtype=np.float32)
        # Survivor segment first (rows are left-compacted already): forced
        # kept, so they only act as occluders of the inherited candidates.
        pool_ids[:, :S] = self._adj[rows, :S]
        pool_d[:, :S] = 0.0
        ri = rpos[t_s]
        pool_ids[ri, S + rank] = s_s
        pool_d[ri, S + rank] = d_s
        forced = np.zeros((rows.size, W), dtype=bool)
        forced[:, :S] = pool_ids[:, :S] >= 0
        keep = occlusion_prune_mask(
            self._pts, pool_ids, pool_d, self.metric, forced=forced
        )
        kept = keep[ri, S + rank]
        # Rank each row's *kept* candidates and fill freed capacity only.
        ksum = np.cumsum(kept)
        base = np.repeat(ksum[starts] - kept[starts],
                         np.diff(np.r_[starts, kept.size]))
        kept_rank = ksum - kept - base
        fill = kept & (kept_rank < (self.max_degree - self._counts[t_s]))
        t_f, s_f, r_f = t_s[fill], s_s[fill], kept_rank[fill]
        if t_f.size:
            self._adj[t_f, self._counts[t_f] + r_f] = s_f
            self._counts[:n] += np.bincount(t_f, minlength=n)
        return int(rows_aff.size)

    # -------------------------------------------------------------- codecs
    def traversal_codec(self):
        """The graph's traversal codec over all staged points (None for
        float32; dead rows carry unused codes — expansion never admits
        them).  Fitted lazily at the first search, it survives insert waves
        via :meth:`~repro.search.precision.Int8Codec.extend` and is
        re-trained when drift trips the threshold."""
        if self.precision == "float32":
            return None
        if self._codec is None:
            self._fit_codec()
        return self._codec

    def codec_status(self) -> dict:
        """Drift probe for the fitted codec: baseline vs current error."""
        if self._codec is None:
            return {"fitted": False}
        base = self._codec_baseline
        cur = self._codec.reconstruction_error(self._pts[: self._n_total])
        return {
            "fitted": True,
            "baseline_error": base,
            "current_error": cur,
            "stale": bool(base > 0 and cur > self.drift_threshold * base),
            "retrains": self.codec_retrains,
        }

    def _fit_codec(self) -> None:
        pts = self._pts[: self._n_total]
        self._codec = make_codec(self.precision, pts, self.metric)
        self._codec_baseline = self._codec.reconstruction_error(pts)

    def _extend_codec(self, new_pts: np.ndarray) -> None:
        """Extend the fitted codec with the wave's codes; re-train on drift.

        The stale-codebook policy: if the wave's reconstruction error under
        the frozen codebook exceeds ``drift_threshold ×`` the training-time
        baseline (codebook-drift injection produces exactly this), re-fit
        on the full current corpus and count the re-train.
        """
        if self._codec is None:
            return
        self._codec.extend(new_pts)
        base = self._codec_baseline
        err = self._codec.reconstruction_error(new_pts)
        if base > 0 and err > self.drift_threshold * base:
            self._fit_codec()
            self.codec_retrains += 1

    # -------------------------------------------------------------- export
    def freeze(self) -> tuple[np.ndarray, GraphIndex, np.ndarray]:
        """Compact snapshot: (points, csr_graph, original_ids).

        Tombstones are dropped and ids remapped densely; ``original_ids``
        maps compact ids back to the dynamic ids.  The snapshot (and with
        it the GraphIndex's padded neighbour-matrix cache, which the
        batched search engine gathers from) is cached until the next
        mutation, which routes through :meth:`GraphIndex.invalidate_cache`
        so a stale padded matrix can never be served.
        """
        if self._frozen is not None:
            return self._frozen
        n = self._n_total
        alive_ids = np.flatnonzero(self._alive[:n]).astype(np.int64)
        remap = np.full(n, -1, dtype=np.int64)
        remap[alive_ids] = np.arange(alive_ids.size)
        pts = (
            self._pts[alive_ids].copy()
            if alive_ids.size
            else np.empty((0, 0), np.float32)
        )
        lists = []
        for u in alive_ids:
            row = self._adj[u, : self._counts[u]]
            live = remap[row[self._alive[row]]]
            lists.append(live.astype(np.int32))
        self._frozen = (
            pts,
            GraphIndex.from_neighbor_lists(lists, kind="dynamic"),
            alive_ids,
        )
        return self._frozen

    def _snapshot(self) -> "DynamicGraph":
        """A private copy to search later: adjacency, degrees, liveness, entry
        and codec (fitted now, as a first search would) are copied; point rows
        and norms are shared views, since rows are append-only."""
        if self._n_alive:
            self.traversal_codec()
        n, snap = self._n_total, object.__new__(DynamicGraph)
        for name in ("precision", "rerank_mult", "link_select", "metric", "max_degree",
                     "ef", "drift_threshold", "_n_total", "_n_alive", "_codec_baseline",
                     "_entry", "version", "compactions", "codec_retrains"):
            setattr(snap, name, getattr(self, name))
        snap._pts, snap._sqnorms = self._pts[:n], self._sqnorms[:n]
        snap._adj, snap._counts, snap._alive = (
            a[:n].copy() for a in (self._adj, self._counts, self._alive))
        snap._pending_dead, snap._codec = list(self._pending_dead), copy.copy(self._codec)
        snap._frozen = snap._pending = None
        return snap

    # ------------------------------------------------------------ internal
    def _mutate(self) -> None:
        """Every mutation: bump the version epoch and drop cached views."""
        self.version += 1
        if self._frozen is not None:
            self._frozen[1].invalidate_cache()
            self._frozen = None

    def _ensure_capacity(self, n: int) -> None:
        cap = self._pts.shape[0]
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        grown_pts = np.zeros((cap, self._pts.shape[1]), dtype=np.float32)
        grown_pts[: self._n_total] = self._pts[: self._n_total]
        grown_adj = np.full((cap, self._adj.shape[1]), -1, dtype=np.int64)
        grown_adj[: self._n_total] = self._adj[: self._n_total]
        self._pts, self._adj = grown_pts, grown_adj
        self._sqnorms = np.concatenate(
            [self._sqnorms, np.zeros(cap - self._sqnorms.size, dtype=np.float32)]
        )
        self._counts = np.concatenate(
            [self._counts, np.zeros(cap - self._counts.size, dtype=np.int64)]
        )
        self._alive = np.concatenate(
            [self._alive, np.zeros(cap - self._alive.size, dtype=bool)]
        )

    def _insert_ef(self) -> int:
        """Beam of an insertion search: wide enough for ``max_degree`` links."""
        return max(self.ef, self.max_degree + 1)

    def _staged_points(self, points) -> tuple[np.ndarray, np.ndarray]:
        """An insert wave as it is staged — ``(W, dim)`` float32, finite,
        unit rows under cosine — and its rows' squared norms."""
        pts = np.ascontiguousarray(points, dtype=np.float32)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[0] and pts.shape[1] != self._pts.shape[1]:
            raise ValueError("dimension mismatch")
        require_finite(pts, "inserted points")
        sqnorms = np.einsum("ij,ij->i", pts, pts)
        if self.metric == "cosine":
            require_unit(sqnorms, "inserted points")
        return pts, sqnorms

    def _take_pending(self, pts: np.ndarray, split: tuple[int, int]):
        """Consume the pools a fused :meth:`search_batch` left for ``pts``;
        ``None`` unless the graph is unchanged since, the split is the same
        and the points equal."""
        pending, self._pending = self._pending, None
        if pending is None:
            return None
        version, at, staged, pool_ids, pool_d = pending
        if (version, at) != (self.version, split) or not np.array_equal(staged, pts):
            return None
        return pool_ids, pool_d

    def _entry_population(self) -> np.ndarray:
        """The vertices hashed entries may name: live ones holding at least
        half their degree budget (all live ones if none does).  An outlier
        insert keeps one link after the occlusion prune and sits far from
        every query, so it is no entry, and it does not widen the id span
        the hash maps onto: a t=0 copy of the graph and the churned graph
        then name the same entries wherever those survive."""
        n = self._n_total
        linked = np.flatnonzero(
            self._alive[:n] & (self._counts[:n] >= self.max_degree // 2))
        return linked if linked.size else self.alive_ids()

    def _live_entry(self) -> int:
        if self._entry is None or not self._alive[self._entry]:
            self._entry = self._pick_entry()
        return self._entry

    def _pick_entry(self) -> int:
        """Closest live vertex to the live centroid — a cheap medoid proxy
        that keeps the entry central as the corpus churns."""
        alive = self.alive_ids()
        if alive.size == 0:
            return 0
        centroid = self._pts[alive].mean(axis=0)
        d = query_distances(centroid, self._pts[alive], self.metric)
        return int(alive[int(np.argmin(d))])

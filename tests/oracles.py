"""Scalar search, pricing and graph-construction oracles for the parity tests.

``src/`` has one search engine on the serve path (the lockstep
:class:`~repro.search.LockstepEngine`); the one-step-per-iteration
reference functions (``tests.reference``: ``intra_cta_search`` /
``multi_cta_search``) are plain functions the tests call directly.  This
module composes them into the system-level shape so ``system.search_all``
can be checked against them bit for bit, and :func:`scalar_dynamic_search`
is the same kind of oracle for ``DynamicGraph.search``.
:func:`scalar_step_cost` is the matching pricing oracle — the cost
formulas one ``StepRecord`` at a time — and :func:`scalar_cta_cost` its
left-to-right accumulation; the block pricer ``CostModel.block_cost``
must equal both exactly.  :func:`codec_distances` is the allocating form
of the quantized distance kernel (``Int8Kernel``), which must equal it
bit for bit.

:func:`oneshot_latent_mixture` and :func:`pooled_load` are the corpus
generator and ``load_dataset``'s split as they were before both ran in row
blocks: the whole draw in float64 at once, then the pool gathered into
base and queries.  The blocked forms must equal them byte for byte.

``src/`` likewise has one builder per graph family (``repro.graphs``:
wave / array builders); the per-vertex Python loops they replaced are
:func:`scalar_build_nsw`, :func:`scalar_build_hnsw` (layer 0 of the
hierarchical :class:`ScalarHNSW`), :func:`scalar_build_nsg`,
:func:`scalar_build_cagra` below — CAGRA is equal to it byte for byte,
NSW, HNSW and NSG are held to their recall.  The shared occlusion prune
they all link through is held to :func:`full_width_occlusion_prune_mask`, its
pre-width-ordering body, mask for mask.  :func:`union_find_components`
is the plain union-find the numpy weak-component count of
``graph_stats`` is held to.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import DATASETS
from repro.data.metrics import normalize, query_distances
from repro.gpusim.costmodel import (
    CTACost,
    _ceil_div,
    bitonic_merge_groups,
    bitonic_sort_groups,
)
from repro.gpusim.trace import QueryTrace, StepRecord, TraceBlock, precision_code
from repro.graphs import GraphIndex, exact_knn_matrix, occlusion_prune_mask
from repro.graphs.utils import medoid
from repro.search.batched import BeamConfig, per_cta_capacity, query_entries, seeds_per_cta

from .reference import intra_cta_search, multi_cta_search


def make_entries(
    n_points: int,
    n_ctas: int,
    entries_per_cta: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Distinct rng-drawn entry points for each CTA: consecutive slices of
    one draw, so the last CTA needs ``n_points > (n_ctas - 1) *
    entries_per_cta``.  The systems name their entries from the query
    (``query_entries``); tests that feed the engine and the scalar
    reference the same explicit entries draw them here."""
    if n_points <= (n_ctas - 1) * entries_per_cta:
        raise ValueError(
            f"n_points={n_points} leaves a CTA without an entry point "
            f"(n_ctas={n_ctas}, entries_per_cta={entries_per_cta})")
    total = min(n_ctas * entries_per_cta, n_points)
    flat = rng.choice(n_points, size=total, replace=False)
    return [
        flat[i * entries_per_cta : (i + 1) * entries_per_cta]
        for i in range(n_ctas)
    ]


def scalar_search_all(system, queries, seed=None):
    """``system.search_all`` computed query by query on the scalar oracle.

    Each query runs from its rows of ``system.search_entries``: single-CTA
    systems through ``intra_cta_search``, multi-CTA ones through
    ``multi_cta_search``.  Returns ``(ids, dists, traces)`` shaped like
    :meth:`BaseGraphSystem.search_all`.
    """
    entries = system.search_entries(queries, system.seed if seed is None else seed)
    codec = system.traversal_codec()
    rm = system.rerank_mult
    nq, k = queries.shape[0], system.k
    ids = np.full((nq, k), -1, dtype=np.int64)
    dists = np.full((nq, k), np.inf, dtype=np.float32)
    traces = []
    for i in range(nq):
        if system.n_parallel == 1:
            r = intra_cta_search(
                system.base, system.graph, queries[i], k,
                system.tuning.per_cta_cand_len, entries[i, 0],
                metric=system.metric, beam=system.beam,
                codec=codec, rerank_mult=rm,
            )
            trace = QueryTrace(ctas=[r.trace], dim=int(system.base.shape[1]), k=k)
        else:
            r = multi_cta_search(
                system.base, system.graph, queries[i], k, system.l_total,
                system.n_parallel, metric=system.metric, beam=system.beam,
                entries=list(entries[i]), codec=codec, rerank_mult=rm,
            )
            trace = r.trace
        m = min(k, len(r.ids))
        ids[i, :m] = r.ids[:m]
        dists[i, :m] = r.dists[:m]
        traces.append(trace)
    return ids, dists, traces


def dynamic_entries(dyn, rows, k, l_total, n_ctas):
    """The ``(Q, n_ctas, e)`` entries a ``DynamicGraph`` search of ``rows``
    seeds: ``seeds_per_cta`` of each CTA's list hashed from the row over
    the entry population, CTA 0's first at the live medoid."""
    per = seeds_per_cta(per_cta_capacity(l_total, n_ctas, k))
    entries = query_entries(rows, n_ctas, per, dyn._entry_population())
    entries[:, 0, 0] = dyn._live_entry()
    return entries


def scalar_dynamic_search(dyn, query, k, l=None):
    """Alg. 1 over a ``DynamicGraph``'s live arrays with expansion-time
    tombstone masking and the beam extend of ``tests.reference``'s
    ``CTASearcher`` (``BeamConfig.for_capacity`` of the list), one Python
    step at a time, from the entries of :func:`dynamic_entries` — the
    reference ``dyn.search`` is tested against.  Returns ``(ids, dists)``."""
    lcap = l or max(dyn.ef, k)
    beam = BeamConfig.for_capacity(lcap)
    entries = np.unique(dynamic_entries(dyn, query[None, :], k, lcap, 1))
    visited = set(entries.tolist())
    d0 = query_distances(query, dyn._pts[entries], dyn.metric)
    cand: list[list] = sorted(
        ([float(d), int(u), False] for d, u in zip(d0, entries)),
        key=lambda c: (c[0], c[1]))
    while True:
        off = next((i for i, c in enumerate(cand) if not c[2]), None)
        if off is None:
            break
        width = beam.beam_width if off >= beam.offset_beam else 1
        fresh = []
        for sel in [c for c in cand[off:] if not c[2]][:width]:
            sel[2] = True
            for u in dyn._adj[sel[1], : dyn._counts[sel[1]]]:
                if dyn._alive[u] and int(u) not in visited:
                    visited.add(int(u))
                    fresh.append(int(u))
        if not fresh:
            continue
        nd = query_distances(query, dyn._pts[fresh], dyn.metric)
        cand.extend([float(d), u, False] for d, u in zip(nd, fresh))
        cand.sort(key=lambda c: (c[0], c[1]))
        del cand[lcap:]
    top = cand[:k]
    return (
        np.array([u for _, u, _ in top], dtype=np.int64),
        np.array([d for d, _, _ in top], dtype=np.float32),
    )


def loop_recall_per_query(found, truth) -> np.ndarray:
    """``recall_per_query`` one row at a time with ``np.intersect1d``: the
    distinct truth ids found, padding (negative ids) never matching."""
    found, truth = np.asarray(found), np.asarray(truth)
    k = truth.shape[1]
    out = np.empty(found.shape[0], dtype=np.float64)
    for i in range(found.shape[0]):
        f = found[i]
        out[i] = np.intersect1d(f[f >= 0], truth[i]).size / k
    return out


def assert_same_search_all(got, want):
    """``(ids, dists, traces)`` triples must match bit for bit; the engine's
    trace block equals the oracle's traces column for column."""
    (gi, gd, gt), (wi, wd, wt) = got, want
    assert np.array_equal(gi, wi)
    assert gd.tobytes() == wd.tobytes()
    assert isinstance(gt, TraceBlock)
    assert gt == TraceBlock.from_traces(wt)


@dataclass(frozen=True)
class StepCost:
    """Time breakdown of one step, microseconds."""

    select_us: float
    fetch_us: float
    filter_us: float
    distance_us: float
    sort_us: float

    @property
    def total_us(self) -> float:
        return self.select_us + self.fetch_us + self.filter_us + self.distance_us + self.sort_us


def scalar_step_cost(cost_model, step: StepRecord) -> StepCost:
    """Price a single search step in plain Python — the former
    ``CostModel.step_cost``, whose formulas ``CostModel.block_step_costs``
    transcribes over columns."""
    p, t, us, dev = cost_model.params, cost_model.threads, cost_model._us, cost_model.device
    select = us(_ceil_div(max(step.cand_list_len, 1), t) * p.scan_cycles * step.n_expanded)
    # Adjacency fetch: one global-memory round trip per expanded
    # candidate plus streaming the neighbour ids.
    fetch_bytes = step.n_neighbors_fetched * 4
    fetch = (
        step.n_expanded * us(dev.global_mem_latency_cycles)
        + fetch_bytes / (dev.global_mem_bw_gbps * 1e3)
    )
    filter_ = us(
        _ceil_div(max(step.n_visited_checks, 1), t) * p.bitmap_cycles
    ) if step.n_visited_checks else 0.0
    distance = 0.0
    precision = step.precision
    precision_code(precision)  # an unknown tag fails; it is not float32
    if step.n_new_points:
        reduce_steps = step.n_new_points * max(1, int(math.log2(t)))
        if precision == "int8":
            # DP4A packs int8_mac_pack MACs per lane-cycle and streams
            # 1 byte/dimension instead of 4.
            pack = max(int(p.int8_mac_pack), 1)
            iters = _ceil_div(step.n_new_points * step.dim, t * pack)
            lane_cycles = iters * p.fma_iter_cycles
            vec_bytes = step.n_new_points * step.dim * 1
        else:
            iters = _ceil_div(step.n_new_points * step.dim, t)
            lane_cycles = iters * p.fma_iter_cycles
            vec_bytes = step.n_new_points * step.dim * 4
        distance = us(
            lane_cycles + reduce_steps * p.shuffle_cycles
        ) + vec_bytes / (dev.global_mem_bw_gbps * 1e3)
    sort = scalar_sort_cost_us(cost_model, step) if step.did_sort else 0.0
    total_fixed = us(p.step_fixed_cycles)
    return StepCost(select + total_fixed, fetch, filter_, distance, sort)


def scalar_sort_cost_us(cost_model, step: StepRecord) -> float:
    """Bitonic sort of the expand list + merge into the candidate list."""
    p, t = cost_model.params, cost_model.threads
    expand_n = max(step.sort_size - step.cand_list_len, 0)
    cycles = 0.0
    if expand_n > 1:
        cycles += bitonic_sort_groups(expand_n, t) * p.cmpex_cycles
    if step.sort_size > 1:
        cycles += bitonic_merge_groups(step.sort_size, t) * p.cmpex_cycles
    return cost_model._us(cycles)


def scalar_cta_cost(cost_model, trace) -> CTACost:
    """Price one ``CTATrace`` step by step, accumulating left to right —
    the pre-block ``CostModel.cta_cost`` kept as the reference."""
    sel = fet = fil = dis = srt = 0.0
    for s in trace.steps:
        c = scalar_step_cost(cost_model, s)
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


def codec_distances(codec, state, qrows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Approximate distances of matched (query-row, point-id) pairs under
    an ``Int8Codec``, materialising every gathered operand — the former
    ``codec.distances``.  ``codec.make_kernel(state)`` (the cache-blocked
    kernel every search dispatches) must equal it bit for bit."""
    qs, qoff = state
    c = codec.codes[ids].astype(np.float32)
    dot = np.einsum("ij,ij->i", np.ascontiguousarray(qs[qrows]), c)
    if codec.metric == "l2":
        d = qoff[qrows] + codec._pnorm_hat[ids] - 2.0 * dot
        return np.maximum(d, 0.0).astype(np.float32)
    return (qoff[qrows] - dot).astype(np.float32)


# ------------------------------------------------------------------ corpora
def oneshot_latent_mixture(n, dim, n_clusters=48, intrinsic_dim=None, cluster_std=0.5,
                           ambient_noise=0.12, zipf_exponent=0.7, seed=0) -> np.ndarray:
    """``latent_mixture`` with every draw and the projection over the whole
    corpus at once: two float64 ``(n, dim)`` arrays before the cast."""
    if intrinsic_dim is None:
        intrinsic_dim = min(18, dim)
    rng = np.random.default_rng(seed)
    n_clusters = min(n_clusters, n)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, intrinsic_dim))
    weights = 1.0 / np.arange(1, n_clusters + 1) ** zipf_exponent
    weights /= weights.sum()
    labels = rng.choice(n_clusters, size=n, p=weights)
    z = centers[labels] + rng.normal(0.0, cluster_std, size=(n, intrinsic_dim))
    proj = rng.normal(0.0, 1.0, size=(intrinsic_dim, dim)) / np.sqrt(intrinsic_dim)
    x = z @ proj
    if ambient_noise > 0:
        x += rng.normal(0.0, ambient_noise, size=(n, dim))
    return np.ascontiguousarray(x, dtype=np.float32)


def pooled_load(name: str, n: int, n_queries: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``load_dataset``'s ``(base, queries)`` drawn as one pool and split by
    gathering: the pool's rows ``perm[n_queries:]`` are the base and
    ``perm[:n_queries]`` the queries, ``perm`` a ``seed + 1`` permutation."""
    spec = DATASETS[name]
    pool = oneshot_latent_mixture(n + n_queries, spec.dim, n_clusters=spec.n_clusters,
                                  intrinsic_dim=spec.intrinsic_dim, seed=seed)
    if spec.family == "sphere":
        pool = normalize(pool, copy=False)
    perm = np.random.default_rng(seed + 1).permutation(n + n_queries)
    base, queries = pool[perm[n_queries:]], pool[perm[:n_queries]]
    if spec.metric == "cosine":
        base, queries = normalize(base, copy=False), normalize(queries, copy=False)
    return base, queries


# ---------------------------------------------------------------- builders
# The one-vertex-at-a-time builders the wave / array builders of
# ``repro.graphs`` replaced.  They take validated float32 ``points``.

def scalar_build_nsw(
    points: np.ndarray,
    m: int = 16,
    ef_construction: int = 64,
    metric: str = "l2",
    max_degree: int | None = None,
    seed: int = 0,
) -> GraphIndex:
    """Faithful incremental NSW (Malkov et al. 2014): each point is
    inserted by greedy beam search over the graph built so far and linked
    bidirectionally to its ``m`` closest discovered neighbours; a vertex
    over ``max_degree`` (default ``2 m``) drops its farthest links."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    cap = max_degree or 2 * m
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    adj: list[list[int]] = [[] for _ in range(n)]
    inserted: list[int] = []

    for new in order:
        if not inserted:
            inserted.append(int(new))
            continue
        entry = inserted[0]
        found = _beam_search(points, adj, points[new], entry, ef_construction, metric)
        links = found[:m]
        for v in links:
            adj[new].append(int(v))
            adj[v].append(int(new))
            if len(adj[v]) > cap:
                _trim_closest(points, adj, v, cap, metric)
        inserted.append(int(new))
    return GraphIndex.from_neighbor_lists([np.array(a, dtype=np.int32) for a in adj], kind="nsw")


def _beam_search(
    points: np.ndarray,
    adj: list[list[int]],
    query: np.ndarray,
    entry: int,
    ef: int,
    metric: str,
) -> np.ndarray:
    """Greedy beam search over a partially built adjacency; returns ids
    sorted by ascending distance (up to ``ef``)."""
    visited = {entry}
    d0 = _dist(points[entry], query, metric)
    cand_ids = [entry]
    cand_d = [d0]
    checked = [False]
    while True:
        best = None
        best_d = np.inf
        for i, (dd, ck) in enumerate(zip(cand_d, checked)):
            if not ck and dd < best_d:
                best, best_d = i, dd
        if best is None:
            break
        checked[best] = True
        nbrs = [v for v in adj[cand_ids[best]] if v not in visited]
        if not nbrs:
            continue
        visited.update(nbrs)
        nd = query_distances(query, points[nbrs], metric)
        cand_ids.extend(nbrs)
        cand_d.extend(nd.tolist())
        checked.extend([False] * len(nbrs))
        if len(cand_ids) > ef:
            orderi = np.argsort(cand_d, kind="stable")[:ef]
            cand_ids = [cand_ids[i] for i in orderi]
            cand_d = [cand_d[i] for i in orderi]
            checked = [checked[i] for i in orderi]
    orderi = np.argsort(cand_d, kind="stable")
    return np.array([cand_ids[i] for i in orderi], dtype=np.int64)


def _dist(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    if metric == "l2":
        d = a - b
        return float(np.dot(d, d))
    return float(1.0 - np.dot(a, b))


def _trim_closest(
    points: np.ndarray, adj: list[list[int]], v: int, cap: int, metric: str
) -> None:
    nbrs = np.array(adj[v], dtype=np.int64)
    d = query_distances(points[v], points[nbrs], metric)
    keep = np.argsort(d, kind="stable")[:cap]
    adj[v] = [int(x) for x in nbrs[keep]]


@dataclass
class _Layer:
    adj: dict[int, list[int]] = field(default_factory=dict)

    def neighbors(self, v: int) -> list[int]:
        return self.adj.get(v, [])


class ScalarHNSW:
    """Incremental HNSW (Malkov & Yashunin, TPAMI'18), one point at a time:
    each point draws a level from a geometric distribution, is routed
    greedily through the upper layers, and is linked on every layer at or
    below its level with the *heuristic* neighbour selection (keep a
    candidate only if it is closer to the query than to every
    already-selected neighbour).  ``to_graph_index()`` exports layer 0."""

    def __init__(
        self,
        points: np.ndarray,
        m: int = 12,
        ef_construction: int = 64,
        metric: str = "l2",
        seed: int = 0,
    ):
        self.points = np.asarray(points, dtype=np.float32)
        self.m = m
        self.m0 = 2 * m  # layer-0 degree cap, per the paper
        self.ef_construction = ef_construction
        self.metric = metric
        self.ml = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)
        self.layers: list[_Layer] = [_Layer()]
        self.levels = np.zeros(self.points.shape[0], dtype=np.int64)
        self.entry: int | None = None
        for v in range(self.points.shape[0]):
            self._insert(v)

    # ------------------------------------------------------------ building
    def _draw_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self.ml)

    def _insert(self, v: int) -> None:
        level = self._draw_level()
        self.levels[v] = level
        while len(self.layers) <= level:
            self.layers.append(_Layer())
        if self.entry is None:
            self.entry = v
            for lc in range(level + 1):
                self.layers[lc].adj[v] = []
            return
        ep = self.entry
        top = int(self.levels[self.entry])
        q = self.points[v]
        # Greedy descent through layers above the insertion level.
        for lc in range(top, level, -1):
            ep = self._greedy_closest(q, ep, lc)
        # Insert with ef-search on each layer at or below min(level, top).
        for lc in range(min(level, top), -1, -1):
            cand = self._search_layer(q, [ep], self.ef_construction, lc)
            cap = self.m0 if lc == 0 else self.m
            selected = self._select_heuristic(q, cand, self.m)
            self.layers[lc].adj[v] = [u for _, u in selected]
            for d_uv, u in selected:
                self.layers[lc].adj.setdefault(u, []).append(v)
                if len(self.layers[lc].adj[u]) > cap:
                    self._shrink(u, lc, cap)
            ep = selected[0][1] if selected else ep
        if level > top:
            self.entry = v

    def _shrink(self, u: int, lc: int, cap: int) -> None:
        nbrs = self.layers[lc].adj[u]
        d = query_distances(self.points[u], self.points[np.array(nbrs)], self.metric)
        pairs = sorted(zip(d.tolist(), nbrs))
        selected = self._select_heuristic(self.points[u], pairs, cap)
        self.layers[lc].adj[u] = [v for _, v in selected]

    def _select_heuristic(
        self, q: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Diversifying neighbour selection (HNSW Algorithm 4)."""
        out: list[tuple[float, int]] = []
        for d_c, c in sorted(candidates):
            if len(out) >= m:
                break
            ok = True
            for _, s in out:
                if (
                    float(
                        query_distances(
                            self.points[c], self.points[s][None, :], self.metric
                        )[0]
                    )
                    < d_c
                ):
                    ok = False
                    break
            if ok:
                out.append((d_c, c))
        if not out and candidates:
            out = [min(candidates)]
        return out

    def _greedy_closest(self, q: np.ndarray, ep: int, lc: int) -> int:
        cur = ep
        cur_d = float(query_distances(q, self.points[cur][None, :], self.metric)[0])
        improved = True
        while improved:
            improved = False
            nbrs = self.layers[lc].neighbors(cur)
            if not nbrs:
                break
            d = query_distances(q, self.points[np.array(nbrs)], self.metric)
            i = int(d.argmin())
            if float(d[i]) < cur_d:
                cur, cur_d = nbrs[i], float(d[i])
                improved = True
        return cur

    def _search_layer(
        self, q: np.ndarray, entries: list[int], ef: int, lc: int
    ) -> list[tuple[float, int]]:
        d0 = query_distances(q, self.points[np.array(entries)], self.metric)
        visited = set(entries)
        frontier = [(float(d), e) for d, e in zip(d0, entries)]
        heapq.heapify(frontier)
        results = [(-float(d), e) for d, e in zip(d0, entries)]
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        while frontier:
            d, v = heapq.heappop(frontier)
            if len(results) >= ef and d > -results[0][0]:
                break
            fresh = [u for u in self.layers[lc].neighbors(v) if u not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            du = query_distances(q, self.points[np.array(fresh)], self.metric)
            for dd, u in zip(du.tolist(), fresh):
                if len(results) < ef or dd < -results[0][0]:
                    heapq.heappush(frontier, (dd, u))
                    heapq.heappush(results, (-dd, u))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-nd, u) for nd, u in results)

    # ------------------------------------------------------------- exports
    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_graph_index(self) -> GraphIndex:
        """Flat layer-0 graph for the GPU search kernels."""
        n = self.points.shape[0]
        lists = [
            np.asarray(self.layers[0].adj.get(v, []), dtype=np.int32)
            for v in range(n)
        ]
        return GraphIndex.from_neighbor_lists(lists, kind="hnsw-l0")


def scalar_build_hnsw(
    points: np.ndarray,
    m: int = 12,
    ef_construction: int = 64,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """Layer 0 of :class:`ScalarHNSW`, the reference ``build_hnsw`` is
    held to on recall."""
    return ScalarHNSW(points, m, ef_construction, metric, seed).to_graph_index()


def scalar_build_nsg(
    points: np.ndarray,
    out_degree: int = 16,
    knn_k: int | None = None,
    search_l: int = 48,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """Per-vertex NSG: medoid-rooted greedy searches one vertex at a time,
    the sequential MRNG occlusion test, and a deque BFS repair."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    knn_k = knn_k or 2 * out_degree
    knn_ids, knn_d = exact_knn_matrix(points, min(knn_k, n - 1), metric)
    nav = medoid(points, metric, seed=seed)

    # Phase 1: per-vertex candidate pools = kNN ∪ search path from nav.
    knn_lists = [knn_ids[v] for v in range(n)]
    adj: list[np.ndarray] = [np.empty(0, np.int64)] * n
    for v in range(n):
        path = _search_path(points, knn_lists, points[v], nav, search_l, metric)
        pool_ids = np.unique(np.concatenate([knn_ids[v].astype(np.int64), path]))
        pool_ids = pool_ids[pool_ids != v]
        pool_d = query_distances(points[v], points[pool_ids], metric)
        order = np.argsort(pool_d, kind="stable")
        adj[v] = _occlusion_select(
            points, v, pool_ids[order], pool_d[order], out_degree, metric
        )

    # Phase 2: connectivity repair — BFS tree from the navigating node,
    # attaching unreachable vertices to their nearest reachable neighbour.
    # Anchors with spare capacity are preferred (append-only attachment
    # cannot disconnect an existing subtree the way edge replacement can),
    # and the BFS+attach cycle iterates to a fixpoint so replacement-induced
    # disconnections are themselves repaired.
    for _ in range(10):
        reachable = _bfs_reachable(adj, nav, n)
        unreached = np.flatnonzero(~reachable)
        if unreached.size == 0:
            break
        reach_ids = np.flatnonzero(reachable)
        for v in unreached:
            d = query_distances(points[v], points[reach_ids], metric)
            order = np.argsort(d, kind="stable")
            anchor = None
            for i in order:
                a = int(reach_ids[i])
                if adj[a].size < out_degree:
                    anchor = a
                    break
            if anchor is not None:
                adj[anchor] = np.append(adj[anchor], v)
            else:
                anchor = int(reach_ids[int(order[0])])
                adj[anchor] = np.append(adj[anchor][:-1], v)

    lists = [a.astype(np.int32) for a in adj]
    return GraphIndex.from_neighbor_lists(lists, kind="nsg")


def _search_path(
    points: np.ndarray,
    knn_lists: list[np.ndarray],
    query: np.ndarray,
    entry: int,
    l: int,
    metric: str,
) -> np.ndarray:
    """Greedy search over the kNN graph; returns every expanded vertex."""
    visited = {entry}
    d0 = float(query_distances(query, points[entry][None, :], metric)[0])
    cand: list[list] = [[d0, entry, False]]
    expanded: list[int] = []
    while True:
        sel = next((c for c in cand if not c[2]), None)
        if sel is None:
            break
        sel[2] = True
        expanded.append(sel[1])
        fresh = [int(u) for u in knn_lists[sel[1]] if int(u) not in visited]
        if fresh:
            visited.update(fresh)
            nd = query_distances(query, points[fresh], metric)
            cand.extend([float(d), u, False] for d, u in zip(nd, fresh))
            cand.sort(key=lambda c: (c[0], c[1]))
            del cand[l:]
    return np.array(expanded, dtype=np.int64)


def _occlusion_select(
    points: np.ndarray,
    v: int,
    pool_ids: np.ndarray,
    pool_d: np.ndarray,
    out_degree: int,
    metric: str,
) -> np.ndarray:
    """MRNG rule: keep u→c unless a kept neighbour is closer to c than u."""
    kept: list[int] = []
    for c, d_vc in zip(pool_ids.tolist(), pool_d.tolist()):
        if len(kept) >= out_degree:
            break
        occluded = False
        if kept:
            d_kc = query_distances(points[c], points[np.array(kept)], metric)
            occluded = bool((d_kc < d_vc).any())
        if not occluded:
            kept.append(int(c))
    return np.array(kept, dtype=np.int64)


def _bfs_reachable(adj: list[np.ndarray], start: int, n: int) -> np.ndarray:
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for u in adj[v]:
            u = int(u)
            if not seen[u]:
                seen[u] = True
                dq.append(u)
    return seen


def scalar_build_cagra(
    points: np.ndarray,
    graph_degree: int = 32,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """CAGRA graph optimization with per-vertex forward / reverse / pad
    loops over the shared detour mask (``occlusion_prune_mask``,
    ``rule="detour"``, over all rows at once); ``build_cagra`` must equal
    it byte for byte."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    inter = min(2 * graph_degree, n - 1)
    cand_ids, cand_d = exact_knn_matrix(points, inter, metric)
    cand_ids = cand_ids.astype(np.int64)

    keep_mask = occlusion_prune_mask(points, cand_ids, cand_d, metric, rule="detour")

    d_half = graph_degree // 2
    forward = np.full((n, graph_degree), -1, dtype=np.int64)
    fwd_count = np.zeros(n, dtype=np.int64)
    # Strong (unpruned) forward edges first, in rank order.
    for u in range(n):
        kept = cand_ids[u][keep_mask[u]]
        take = kept[: max(d_half, 1)]
        forward[u, : take.size] = take
        fwd_count[u] = take.size

    # Reverse edges: rank candidates by how early they appear in the
    # source's kept list (CAGRA's reverse-rank ordering, approximated by
    # forward rank).
    rev_lists: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        kept = cand_ids[u][keep_mask[u]]
        for rank, v in enumerate(kept):
            rev_lists[int(v)].append((rank, u))
    out = np.full((n, graph_degree), -1, dtype=np.int64)
    for u in range(n):
        chosen: list[int] = []
        seen = set()
        for v in forward[u, : fwd_count[u]]:
            if v not in seen:
                chosen.append(int(v))
                seen.add(int(v))
        for _, src in sorted(rev_lists[u]):
            if len(chosen) >= graph_degree:
                break
            if src not in seen and src != u:
                chosen.append(int(src))
                seen.add(int(src))
        # Pad from remaining intermediate candidates (pruned ones included).
        if len(chosen) < graph_degree:
            for v in cand_ids[u]:
                if len(chosen) >= graph_degree:
                    break
                if int(v) not in seen and int(v) != u:
                    chosen.append(int(v))
                    seen.add(int(v))
        out[u, : len(chosen)] = chosen
    return GraphIndex.from_matrix(out.astype(np.int32), kind="cagra")


def full_width_occlusion_prune_mask(
    points, pool_ids, pool_d, metric="l2", chunk=256, rule="mrng", forced=None
):
    """``occlusion_prune_mask`` as it was before it learned row widths and
    took its Gram from a batched matmul: rows in input order, every
    ``chunk``'s einsum Gram tensor and rank scan over all ``K`` columns.
    The production prune equals it mask for mask on the hypothesis pools
    and the benchmark corpora's detour pools; the two Grams differ in last
    bits, so a near-tie can flip an MRNG edge (1 of 320 000 on the sift
    10k degree-32 kNN pools)."""
    points = np.asarray(points, dtype=np.float32)
    pool_ids = np.asarray(pool_ids)
    B, K = pool_ids.shape
    keep = np.zeros((B, K), dtype=bool)
    tri = np.tril(np.ones((K, K), dtype=bool))
    for lo in range(0, B, chunk):
        hi = min(lo + chunk, B)
        ids = pool_ids[lo:hi]
        invalid = ids < 0
        g = points[np.maximum(ids, 0)]
        if metric == "l2":
            sq = np.einsum("ckd,ckd->ck", g, g)
            gram = np.einsum("ckd,cjd->ckj", g, g)
            pair = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
            np.maximum(pair, 0.0, out=pair)
        else:
            pair = 1.0 - np.einsum("ckd,cjd->ckj", g, g)
        pair = np.where(tri[None, :, :] | invalid[:, :, None], np.inf, pair)
        fc = None if forced is None else (forced[lo:hi] & ~invalid)
        if rule == "mrng":
            kc = np.zeros((hi - lo, K), dtype=bool)
            kc[:, 0] = ~invalid[:, 0]
            for j in range(1, K):
                occ = (
                    (pair[:, :j, j] < pool_d[lo:hi, j][:, None]) & kc[:, :j]
                ).any(axis=1)
                kc[:, j] = ~invalid[:, j] & ~occ
                if fc is not None:
                    kc[:, j] |= fc[:, j]
            keep[lo:hi] = kc
        else:
            best_detour = pair.min(axis=1)
            keep[lo:hi] = (best_detour >= pool_d[lo:hi]) & ~invalid
            keep[lo:hi, 0] = ~invalid[:, 0]
            if fc is not None:
                keep[lo:hi] |= fc
    return keep


def union_find_components(graph: GraphIndex) -> int:
    """Weakly connected components of ``graph`` by union-find over its
    edges, one edge at a time (path halving, union by smaller root)."""
    parent = list(range(graph.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(graph.n_vertices):
        for u in graph.neighbors(v):
            a, b = find(v), find(int(u))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return sum(parent[v] == v for v in range(graph.n_vertices))

"""HNSW graph construction (Malkov & Yashunin, TPAMI'18).

GANNS [23] builds HNSW/NSW graphs; the paper's NSW experiments use the
flat variant, but the hierarchical index is part of the same family and is
provided for completeness.

:class:`HNSWIndex` is the reference incremental algorithm: each point
draws a level from a geometric distribution, is routed greedily through
the upper layers, and is linked on every layer at or below its level with
the *heuristic* neighbour selection (keep a candidate only if it is
closer to the query than to every already-selected neighbour — the
diversification rule that keeps the graph navigable).
:meth:`HNSWIndex.search` performs the full hierarchical descent for
CPU-side use; :meth:`HNSWIndex.to_graph_index` exports layer 0 (where all
points live).

The ALGAS search kernels consume flat CSR graphs, so :func:`build_hnsw`
builds that layer-0 graph directly, in doubling waves through the
lockstep engine (:mod:`~repro.graphs.build_batched`), without
materializing the hierarchy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..data.metrics import query_distances
from .base import GraphIndex
from .build_batched import _HNSW_REFINE_FRAC, _MAX_ROWS, _wave_graph
from .utils import as_points

__all__ = ["HNSWIndex", "build_hnsw"]


@dataclass
class _Layer:
    adj: dict[int, list[int]] = field(default_factory=dict)

    def neighbors(self, v: int) -> list[int]:
        return self.adj.get(v, [])


class HNSWIndex:
    """Hierarchical navigable small world index."""

    def __init__(
        self,
        points: np.ndarray,
        m: int = 12,
        ef_construction: int = 64,
        metric: str = "l2",
        ml: float | None = None,
        seed: int = 0,
    ):
        if m <= 0 or ef_construction < m:
            raise ValueError("need 0 < m <= ef_construction")
        self.points = np.asarray(points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, dim) array")
        self.m = m
        self.m0 = 2 * m  # layer-0 degree cap, per the paper
        self.ef_construction = ef_construction
        self.metric = metric
        self.ml = ml if ml is not None else 1.0 / math.log(m)
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

    # ----------------------------------------------------------- searching
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

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hierarchical k-NN search (descend upper layers, ef-search layer 0)."""
        if k <= 0:
            raise ValueError("k must be positive")
        ef = max(ef or self.ef_construction, k)
        q = np.asarray(query, dtype=np.float32)
        ep = self.entry
        for lc in range(int(self.levels[self.entry]), 0, -1):
            ep = self._greedy_closest(q, ep, lc)
        found = self._search_layer(q, [ep], ef, 0)[:k]
        ids = np.array([u for _, u in found], dtype=np.int64)
        dists = np.array([d for d, _ in found], dtype=np.float32)
        return ids, dists

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


def build_hnsw(
    points: np.ndarray,
    m: int = 12,
    ef_construction: int = 64,
    metric: str = "l2",
    seed: int = 0,
    parallelism: int = 0,
) -> GraphIndex:
    """Wave-batched build of the flat HNSW layer-0 graph (GPU-searchable).

    Layer 0 is where every point lives and the only layer the search
    kernels consume; the upper layers' sole effect on it is routing
    insertion searches.  The wave build reproduces that role with level
    draws: each wave's searches enter at the highest-level vertex of the
    inserted prefix.  Neighbour selection and the shrink-on-overflow both
    use the batched occlusion prune
    (:func:`~repro.graphs.build_batched.occlusion_prune_mask`, the
    parallel form of Algorithm 4's heuristic, as used by CAGRA).
    ``parallelism > 1`` fans the insertion searches over worker processes
    exactly as in :func:`~repro.graphs.nsw.build_nsw`; the CSR is
    identical at any worker count.  When the hierarchical CPU index
    itself is needed, build an :class:`HNSWIndex` — its
    ``to_graph_index()`` is the one-point-at-a-time reference.

    The beam budget is gentler than NSW's: occlusion-pruned graphs keep
    far fewer links per insertion, so starving the waves (NSW's 5/8 cut)
    visibly costs recall — HNSW waves run at ``7/8·ef_construction``
    once the build is large enough to amortize it (``n > 8192``; small
    builds keep the full beam), and the full-beam refinement sweep
    covers everything for small builds, the earliest 3/4 past ``n=8192``.
    """
    points = as_points(points)
    if m <= 0 or ef_construction < m:
        raise ValueError("need 0 < m <= ef_construction")
    n = points.shape[0]
    wave_ef = ef_construction if n <= _MAX_ROWS else max(
        m + 2, (7 * ef_construction) // 8
    )
    ml = 1.0 / math.log(m)  # the level multiplier HNSWIndex defaults to
    rng = np.random.default_rng(seed)
    levels = np.floor(
        -np.log(np.maximum(rng.random(n), 1e-12)) * ml
    ).astype(np.int64)
    return _wave_graph(
        points, m,
        wave_ef=wave_ef,
        ef=ef_construction,
        cap=2 * m,  # layer-0 degree cap, per the paper
        metric=metric,
        select="occlusion",
        entry_fn=lambda lo: int(np.argmax(levels[:lo])),
        refine_frac=_HNSW_REFINE_FRAC,
        parallelism=parallelism,
        kind="hnsw-l0",
    )

"""Reference CPU greedy search — an independent Algorithm 1 implementation.

Deliberately written with different data structures (plain Python lists, no
shared components) than :mod:`tests.reference.intra_cta` so the two can
cross-validate: given the same entry points and candidate budget they must
return identical TopK ids (asserted in the integration tests).

Also provides HNSW-style ``ef_search`` (early termination when the best
unchecked candidate is worse than the current worst result), a common CPU
baseline that the examples use for comparison.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.data.metrics import query_distances
from repro.graphs.base import GraphIndex

__all__ = ["greedy_search", "ef_search"]


def greedy_search(
    points: np.ndarray,
    graph: GraphIndex,
    query: np.ndarray,
    k: int,
    l: int,
    entries: np.ndarray | int,
    metric: str = "l2",
) -> tuple[np.ndarray, np.ndarray, int]:
    """Algorithm 1 exactly: fixed-size list, run until every entry checked.

    Returns ``(ids, dists, n_steps)`` where one step = lines 7–19.
    """
    if k <= 0 or l < k:
        raise ValueError("need 0 < k <= l")
    entries = np.unique(np.atleast_1d(np.asarray(entries, dtype=np.int64)))
    query = np.asarray(query, dtype=np.float32)

    visited = set(int(e) for e in entries)
    d0 = query_distances(query, points[entries], metric)
    # candidate list: list of [dist, id, checked] kept sorted by dist
    cand = sorted([[float(d), int(e), False] for d, e in zip(d0, entries)])
    cand = cand[:l]
    steps = 0
    while True:
        sel = next((c for c in cand if not c[2]), None)
        if sel is None:
            break
        sel[2] = True
        steps += 1
        fresh = [int(v) for v in graph.neighbors(sel[1]) if int(v) not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        nd = query_distances(query, points[fresh], metric)
        for d, v in zip(nd, fresh):
            cand.append([float(d), v, False])
        cand.sort(key=lambda c: (c[0], c[1]))
        del cand[l:]
    top = cand[:k]
    return (
        np.array([c[1] for c in top], dtype=np.int64),
        np.array([c[0] for c in top], dtype=np.float32),
        steps,
    )


def ef_search(
    points: np.ndarray,
    graph: GraphIndex,
    query: np.ndarray,
    k: int,
    ef: int,
    entries: np.ndarray | int,
    metric: str = "l2",
) -> tuple[np.ndarray, np.ndarray]:
    """HNSW-style best-first search with early termination.

    Terminates when the closest unexpanded candidate is farther than the
    worst of the ``ef`` best found so far — fewer expansions than Alg. 1 at
    equal ``ef``, at slightly lower recall.
    """
    if k <= 0 or ef < k:
        raise ValueError("need 0 < k <= ef")
    entries = np.unique(np.atleast_1d(np.asarray(entries, dtype=np.int64)))
    query = np.asarray(query, dtype=np.float32)
    d0 = query_distances(query, points[entries], metric)

    visited = set(int(e) for e in entries)
    frontier = [(float(d), int(e)) for d, e in zip(d0, entries)]  # min-heap
    heapq.heapify(frontier)
    # results: max-heap via negated distance
    results = [(-float(d), int(e)) for d, e in zip(d0, entries)]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    while frontier:
        d, v = heapq.heappop(frontier)
        if len(results) >= ef and d > -results[0][0]:
            break
        fresh = [int(u) for u in graph.neighbors(v) if int(u) not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        nd = query_distances(query, points[fresh], metric)
        for du, u in zip(nd, fresh):
            du = float(du)
            if len(results) < ef or du < -results[0][0]:
                heapq.heappush(frontier, (du, u))
                heapq.heappush(results, (-du, u))
                if len(results) > ef:
                    heapq.heappop(results)
    pairs = sorted(((-nd, u) for nd, u in results))
    top = pairs[:k]
    return (
        np.array([u for _, u in top], dtype=np.int64),
        np.array([d for d, _ in top], dtype=np.float32),
    )

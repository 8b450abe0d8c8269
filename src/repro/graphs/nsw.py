"""NSW graph construction (the GANNS-style graph of the paper).

Two builders:

``build_nsw``
    Faithful incremental construction (Malkov et al. 2014): each point is
    inserted by greedy beam search over the graph built so far and linked
    bidirectionally to its ``m`` closest discovered neighbours.  Exact
    semantics, O(n · search) — used at test scale.

``build_nsw_fast``
    Batched approximation in the spirit of GANNS' GPU construction: points
    are inserted in doubling batches, each batch linked to its exact nearest
    neighbours among previously inserted points (one blocked GEMM per
    batch).  Early points acquire the long-range links that make NSW
    navigable; total cost ≈ one half pairwise-distance pass.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import pairwise_distances, query_distances
from .base import GraphIndex

__all__ = ["build_nsw", "build_nsw_fast"]


def build_nsw(
    points: np.ndarray,
    m: int = 16,
    ef_construction: int = 64,
    metric: str = "l2",
    max_degree: int | None = None,
    seed: int = 0,
    build_backend: str = "scalar",
    parallelism: int = 0,
) -> GraphIndex:
    """Incremental NSW build.

    Parameters
    ----------
    m:
        links created per inserted point (bidirectional).
    ef_construction:
        beam width of the insertion-time search.
    max_degree:
        degree cap after reverse-link insertion (default ``2 m``); when a
        vertex overflows, its farthest links are dropped (NSW keeps closest).
    build_backend:
        ``"scalar"`` inserts one point at a time (this function's loop —
        the auditable oracle); ``"vectorized"`` inserts in doubling waves
        through the lockstep engine
        (:func:`~repro.graphs.build_batched.build_nsw_batched`), same
        linking semantics, order-of-magnitude faster at n≳10k.
    """
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot build a graph over zero points")
    if m <= 0 or ef_construction < m:
        raise ValueError("need 0 < m <= ef_construction")
    if build_backend not in ("scalar", "vectorized"):
        raise ValueError(f"unknown build_backend {build_backend!r}")
    if build_backend == "vectorized":
        from .build_batched import build_nsw_batched

        return build_nsw_batched(
            points, m, ef_construction, metric, max_degree, seed,
            parallelism=parallelism,
        )
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


def build_nsw_fast(
    points: np.ndarray,
    m: int = 16,
    metric: str = "l2",
    max_degree: int | None = None,
    first_batch: int = 256,
    seed: int = 0,
) -> GraphIndex:
    """Batched NSW-style build (GANNS-inspired; see module docstring)."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot build a graph over zero points")
    if m <= 0:
        raise ValueError("m must be positive")
    cap = max_degree or 2 * m
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)  # insertion order
    shuffled = points[perm]

    b0 = min(max(first_batch, m + 1), n)
    adj_counts = np.zeros(n, dtype=np.int64)
    fwd = np.full((n, m), -1, dtype=np.int64)

    # Seed batch: exact kNN among the first b0 points.
    d = pairwise_distances(shuffled[:b0], shuffled[:b0], metric)
    np.fill_diagonal(d, np.inf)
    k0 = min(m, b0 - 1)
    part = np.argpartition(d, k0 - 1, axis=1)[:, :k0]
    pd = np.take_along_axis(d, part, axis=1)
    orderi = np.argsort(pd, axis=1, kind="stable")
    fwd[:b0, :k0] = np.take_along_axis(part, orderi, axis=1)

    lo = b0
    while lo < n:
        hi = min(n, lo * 2)
        batch = shuffled[lo:hi]
        d = pairwise_distances(batch, shuffled[:lo], metric)
        k = min(m, lo)
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        pd = np.take_along_axis(d, part, axis=1)
        orderi = np.argsort(pd, axis=1, kind="stable")
        fwd[lo:hi, :k] = np.take_along_axis(part, orderi, axis=1)
        lo = hi

    # Materialize bidirectional adjacency with degree cap (keep closest).
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in fwd[u]:
            if v < 0:
                continue
            adj[u].append(int(v))
            adj[int(v)].append(u)
    del adj_counts
    out_lists = []
    for v in range(n):
        nbrs = np.unique(np.array(adj[v], dtype=np.int64))
        nbrs = nbrs[nbrs != v]
        if nbrs.size > cap:
            dd = query_distances(shuffled[v], shuffled[nbrs], metric)
            nbrs = nbrs[np.argsort(dd, kind="stable")[:cap]]
        out_lists.append(nbrs)

    # Undo the insertion shuffle: vertex ids must index the original points.
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    final: list[np.ndarray] = [np.empty(0, dtype=np.int32)] * n
    for shuffled_id, nbrs in enumerate(out_lists):
        final[perm[shuffled_id]] = perm[nbrs].astype(np.int32)
    return GraphIndex.from_neighbor_lists(final, kind="nsw")

"""NSW graph construction (the GANNS-style graph of the paper).

Two builders:

``build_nsw``
    Wave insertion (Malkov et al. 2014 linking semantics, batched): points
    insert in doubling waves whose beam searches advance in lockstep
    through :class:`~repro.search.batched.LockstepEngine` against the
    frozen prefix; each point links bidirectionally to its ``m`` closest
    discoveries, reverse edges are accumulated with a bucketed scatter
    and degree-capped (keep closest) in one padded argsort, and a
    refinement sweep re-searches the earliest points against the finished
    graph (:mod:`~repro.graphs.build_batched` holds the machinery).  The
    one-point-at-a-time form is ``tests/oracles.py::scalar_build_nsw``.

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
from .build_batched import _NSW_REFINE_FRAC, _wave_graph
from .utils import as_points

__all__ = ["build_nsw", "build_nsw_fast"]


def build_nsw(
    points: np.ndarray,
    m: int = 16,
    ef_construction: int = 64,
    metric: str = "l2",
    max_degree: int | None = None,
    seed: int = 0,
    parallelism: int = 0,
    *,
    build_backend: str | None = None,
) -> GraphIndex:
    """Wave-batched NSW build.

    Parameters
    ----------
    m:
        links created per inserted point (bidirectional).
    ef_construction:
        beam width of the insertion-time search.
    max_degree:
        degree cap after reverse-link insertion (default ``2 m``); when a
        vertex overflows, its farthest links are dropped (NSW keeps closest).
    parallelism:
        ``> 1`` fans each wave's (and the refinement sweep's) insertion
        searches across worker processes over a shared-memory mirror of
        the growing graph; the produced CSR is identical at any worker
        count (rows are search-independent, linking stays serial).

    Budget policy: the per-wave insertion searches run at a reduced beam
    (``5/8·ef_construction``) and the saved budget funds a refinement
    sweep at the full ``ef_construction`` over the earliest-inserted
    vertices — the ones whose insertion searches saw the sparsest prefix
    (everything for ``n <= 8192``, the earliest half past that; the
    constants and their reasons sit beside ``_MAX_ROWS`` in
    :mod:`~repro.graphs.build_batched`).  On the mini corpora this lands
    above the one-point-at-a-time build's recall at a fraction of its
    wall-clock.
    """
    points = as_points(points)
    if m <= 0 or ef_construction < m:
        raise ValueError("need 0 < m <= ef_construction")
    # benchmarks/e2e/workloads.py (byte-frozen) still passes "vectorized".
    if build_backend not in (None, "vectorized"):
        raise ValueError(
            f"build_backend={build_backend!r} is gone: build_nsw has one "
            "(wave) builder; the per-vertex loop is "
            "tests/oracles.py::scalar_build_nsw"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(points.shape[0])  # the insertion order
    shuffled = np.ascontiguousarray(points[order])
    return _wave_graph(
        shuffled, m,
        wave_ef=max(m + 2, (5 * ef_construction) // 8),
        ef=ef_construction,
        cap=max_degree or 2 * m,
        metric=metric,
        select="closest",
        entry_fn=lambda lo: 0,
        refine_frac=_NSW_REFINE_FRAC,
        parallelism=parallelism,
        kind="nsw",
        remap=order,
    )


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

"""NSW graph construction (the GANNS-style graph of the paper).

:func:`build_nsw` is wave insertion (Malkov et al. 2014 linking
semantics, batched): points insert in doubling waves whose beam searches
advance in lockstep through :class:`~repro.search.batched.LockstepEngine`
against the frozen prefix; each point links bidirectionally to its ``m``
closest discoveries, reverse edges are accumulated with a bucketed
scatter and degree-capped (keep closest) in one padded argsort, and a
refinement sweep re-searches the earliest points against the finished
graph (:mod:`~repro.graphs.build_batched` holds the machinery).  The
one-point-at-a-time form is ``tests/oracles.py::scalar_build_nsw``.
"""

from __future__ import annotations

import numpy as np

from .base import GraphIndex
from .build_batched import _NSW_REFINE_FRAC, _wave_graph
from .utils import as_points

__all__ = ["build_nsw"]


def build_nsw(
    points: np.ndarray,
    m: int = 16,
    ef_construction: int = 64,
    metric: str = "l2",
    max_degree: int | None = None,
    seed: int = 0,
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

    A wave's insertion searches (and the refinement sweep's) split over
    the cores on threads as a wide search does; the CSR is identical on
    any number of cores (rows are search-independent, linking is serial).

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
    points = as_points(points, metric)
    if m < 2 or ef_construction < m:
        raise ValueError(
            f"need 2 <= m <= ef_construction, got m={m}, "
            f"ef_construction={ef_construction}"
        )
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
        kind="nsw",
        remap=order,
    )

"""HNSW graph construction (Malkov & Yashunin, TPAMI'18).

GANNS [23] builds HNSW/NSW graphs; the paper's NSW experiments use the
flat variant, but the hierarchical index is part of the same family and is
provided for completeness.

The ALGAS search kernels consume flat CSR graphs, so :func:`build_hnsw`
builds the layer-0 graph (where every point lives) directly, in doubling
waves through the lockstep engine (:mod:`~repro.graphs.build_batched`),
without materializing the hierarchy.  The incremental algorithm it
replaces — level draws, greedy descent through the upper layers, and the
*heuristic* neighbour selection on every layer at or below a point's
level — is ``tests/oracles.py::scalar_build_hnsw``.
"""

from __future__ import annotations

import math

import numpy as np

from .base import GraphIndex
from .build_batched import _HNSW_REFINE_FRAC, _MAX_ROWS, _wave_graph
from .utils import as_points

__all__ = ["build_hnsw"]


def build_hnsw(
    points: np.ndarray,
    m: int = 12,
    ef_construction: int = 64,
    metric: str = "l2",
    seed: int = 0,
) -> GraphIndex:
    """Wave-batched build of the flat HNSW layer-0 graph (GPU-searchable).

    Layer 0 is where every point lives and the only layer the search
    kernels consume; the upper layers' sole effect on it is routing
    insertion searches.  The wave build reproduces that role with level
    draws: each wave's searches enter at the highest-level vertex of the
    inserted prefix.  Neighbour selection and the shrink-on-overflow both
    use the batched occlusion prune
    (:func:`~repro.graphs.build_batched.occlusion_prune_mask`, the
    parallel form of Algorithm 4's heuristic, as used by CAGRA).  The
    insertion searches split over the cores exactly as in
    :func:`~repro.graphs.nsw.build_nsw`; the CSR is identical on any
    number of cores.

    The beam budget is gentler than NSW's: occlusion-pruned graphs keep
    far fewer links per insertion, so starving the waves (NSW's 5/8 cut)
    visibly costs recall — HNSW waves run at ``7/8·ef_construction``
    once the build is large enough to amortize it (``n > 8192``; small
    builds keep the full beam), and the full-beam refinement sweep
    covers everything for small builds, the earliest 3/4 past ``n=8192``.
    """
    points = as_points(points, metric)
    if m < 2 or ef_construction < m:
        raise ValueError(
            f"need 2 <= m <= ef_construction, got m={m}, "
            f"ef_construction={ef_construction}"
        )
    n = points.shape[0]
    wave_ef = ef_construction if n <= _MAX_ROWS else max(
        m + 2, (7 * ef_construction) // 8
    )
    ml = 1.0 / math.log(m)  # the paper's level multiplier
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
        kind="hnsw-l0",
    )

"""Pilot-subgraph construction for the hybrid CPU–GPU tier.

When the corpus footprint exceeds device memory, :func:`plan_memory`'s UM
derating makes full-graph GPU traversal catastrophically slow.  The
PilotANN recipe (arXiv 2503.21206) sidesteps the spill: keep a *pilot*
subgraph on the GPU — a sampled fraction of the vertices in reduced
dimensionality — traverse it with the normal lockstep engine, then refine
the surviving candidates on the CPU against the full-precision vectors.

:func:`build_pilot` derives the pilot from the already-built full graph
(no second graph construction): sampled vertices keep their 1-hop edges to
other sampled vertices and gain 2-hop "bridge" edges through unsampled
neighbours, so pilot connectivity tracks the full graph's.  Dimension
reduction is truncated SVD (train on a seeded subsample) or a seeded
Gaussian random projection.  Sizing is driven by ``capacity_bytes``
through the same :func:`footprint_bytes` accounting the memory planner
uses, so a pilot built with default knobs always fits the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.metrics import pair_distances
from ..gpusim.device import DeviceProperties, RTX_A6000
from ..gpusim.memory import MemoryPlan, footprint_bytes, plan_memory
from ..graphs.base import GraphIndex
from ..graphs.build_batched import _add_links, _repair_connectivity
from ..graphs.utils import _compact_rows, _first_occurrence_mask, medoid

__all__ = ["PilotIndex", "build_pilot", "size_pilot"]

REDUCTIONS = ("svd", "random")

#: rows per edge-projection chunk (bounds the (chunk, deg + deg²) scratch)
_EDGE_CHUNK = 1024


@dataclass
class PilotIndex:
    """A device-resident pilot: sampled, dimension-reduced, re-linked.

    Ids inside :attr:`graph` / :attr:`points` are *pilot-local*; use
    :meth:`to_full` to map search results back to corpus ids.
    """

    #: (n_pilot,) int64 sorted corpus ids of the sampled vertices
    sample_ids: np.ndarray
    #: (n_pilot, pilot_dim) float32 reduced vectors
    points: np.ndarray
    #: pilot-local CSR adjacency
    graph: GraphIndex
    #: (full_dim, pilot_dim) float32 projection matrix
    components: np.ndarray
    #: centering vector subtracted before projecting (SVD on l2), or None
    mean: np.ndarray | None
    reduction: str
    sample_ratio: float
    full_n: int
    full_dim: int
    #: device-fit check for the pilot working set
    plan: MemoryPlan = field(repr=False, default=None)

    @property
    def n_pilot(self) -> int:
        return int(self.points.shape[0])

    @property
    def pilot_dim(self) -> int:
        return int(self.points.shape[1])

    def project(self, queries: np.ndarray) -> np.ndarray:
        """Map full-dimension queries into the pilot space."""
        q = np.asarray(queries, dtype=np.float32)
        squeeze = q.ndim == 1
        if squeeze:
            q = q[None, :]
        if q.shape[1] != self.full_dim:
            raise ValueError(
                f"query dim {q.shape[1]} != corpus dim {self.full_dim}"
            )
        if self.mean is not None:
            q = q - self.mean
        out = np.ascontiguousarray(q @ self.components, dtype=np.float32)
        return out[0] if squeeze else out

    def to_full(self, ids: np.ndarray) -> np.ndarray:
        """Pilot-local ids → corpus ids; ``-1`` padding passes through."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.full(ids.shape, -1, dtype=np.int64)
        ok = ids >= 0
        out[ok] = self.sample_ids[ids[ok]]
        return out


def size_pilot(
    n_vectors: int,
    dim: int,
    max_degree: int,
    capacity_bytes: int,
    pilot_dim: int | None = None,
    sample_ratio: float | None = None,
    n_slots: int = 0,
    n_parallel: int = 1,
    k: int = 0,
) -> tuple[float, int]:
    """Pick ``(sample_ratio, pilot_dim)`` so the pilot fits the capacity.

    Explicit knobs are honoured as upper bounds: a given ``sample_ratio``
    is shrunk (never grown) until :func:`footprint_bytes` — assuming the
    full ``max_degree`` out-degree, an overestimate of the real pilot edge
    count — fits ``capacity_bytes``.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if pilot_dim is None:
        # PilotANN operating point: ~dim/4 principal dims, capped — past
        # ~96 dims the extra pilot precision buys little ranking quality
        # but costs bandwidth that the refinement stage recovers anyway.
        pilot_dim = min(dim, max(8, min(dim // 4, 96)))
    pilot_dim = int(min(max(1, pilot_dim), dim))
    if sample_ratio is None:
        # Closed-form first guess from the per-vertex byte cost, refined by
        # the exact footprint check below.
        per_vertex = pilot_dim * 4 + max_degree * 4 + 8 + (n_slots + 7) // 8
        fixed = 8 + n_slots * n_parallel * k * 8
        n_p = (capacity_bytes - fixed) // max(per_vertex, 1)
        sample_ratio = min(1.0, max(n_p, 2) / n_vectors)
    if not 0.0 < sample_ratio <= 1.0:
        raise ValueError("sample_ratio must be in (0, 1]")
    while True:
        n_p = max(2, int(round(sample_ratio * n_vectors)))
        fp = footprint_bytes(
            n_p, pilot_dim, n_p * max_degree, n_slots, n_parallel, k
        )
        if fp <= capacity_bytes:
            return float(sample_ratio), pilot_dim
        if n_p <= 2:
            raise ValueError(
                f"capacity_bytes={capacity_bytes} cannot hold even a "
                f"2-vertex pilot at pilot_dim={pilot_dim}"
            )
        sample_ratio *= 0.9


def _fit_projection(
    base: np.ndarray,
    pilot_dim: int,
    reduction: str,
    metric: str,
    rng: np.random.Generator,
    train_sample: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(components, mean)`` — the (dim, pilot_dim) map queries share."""
    n, dim = base.shape
    if pilot_dim >= dim:
        return np.eye(dim, dtype=np.float32), None
    if reduction == "svd":
        take = min(train_sample, n)
        rows = rng.choice(n, size=take, replace=False) if take < n else np.arange(n)
        train = base[np.sort(rows)].astype(np.float64)
        # Centering changes inner products, so only l2 (translation
        # invariant) gets it; ip/cosine project the raw vectors.
        mean = train.mean(axis=0) if metric == "l2" else None
        if mean is not None:
            train = train - mean
        _, _, vt = np.linalg.svd(train, full_matrices=False)
        comp = np.ascontiguousarray(vt[:pilot_dim].T, dtype=np.float32)
        return comp, None if mean is None else mean.astype(np.float32)
    if reduction == "random":
        comp = rng.standard_normal((dim, pilot_dim)) / np.sqrt(pilot_dim)
        return np.ascontiguousarray(comp, dtype=np.float32), None
    raise ValueError(f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}")


def _project_edges(
    pilot_pts: np.ndarray,
    sample_ids: np.ndarray,
    full_to_pilot: np.ndarray,
    nbr_mat: np.ndarray,
    degrees: np.ndarray,
    max_degree: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Project full-graph edges onto the sample: 1-hop ∪ 2-hop bridges.

    For each sampled vertex, candidates are its sampled neighbours plus
    the sampled neighbours-of-neighbours reached through *unsampled*
    neighbours (the bridge that preserves paths the sampling cut).  The
    pool is deduped hop-1-first, scored in the reduced space, and the
    closest ``max_degree`` kept.  Chunked so scratch stays bounded.
    """
    n_p = pilot_pts.shape[0]
    deg_cap = nbr_mat.shape[1]
    adj = np.full((n_p, max_degree), -1, dtype=np.int64)
    counts = np.zeros(n_p, dtype=np.int64)
    pool_w = max(4 * max_degree, 64)
    col = np.arange(deg_cap)
    for lo in range(0, n_p, _EDGE_CHUNK):
        hi = min(n_p, lo + _EDGE_CHUNK)
        c = hi - lo
        rows = sample_ids[lo:hi]
        nb = nbr_mat[rows].astype(np.int64)
        valid = col[None, :] < degrees[rows][:, None]
        nb = np.where(valid, nb, 0)
        in_sample = full_to_pilot[nb] >= 0
        hop1 = np.where(valid & in_sample, full_to_pilot[nb], -1)
        # Bridges: expand only the unsampled neighbours one more hop.
        bridge = valid & ~in_sample
        bsrc = np.where(bridge, nb, 0)
        nb2 = nbr_mat[bsrc].astype(np.int64).reshape(c, -1)
        v2 = (col[None, None, :] < degrees[bsrc][:, :, None]) & bridge[:, :, None]
        v2 = v2.reshape(c, -1)
        nb2 = np.where(v2, nb2, 0)
        hop2 = np.where(v2 & (full_to_pilot[nb2] >= 0), full_to_pilot[nb2], -1)
        cand = np.concatenate([hop1, hop2], axis=1)
        cand[cand == np.arange(lo, hi, dtype=np.int64)[:, None]] = -1
        keep = _first_occurrence_mask(cand, cand >= 0)
        pool, _, _ = _compact_rows(cand, keep, pool_w)
        # Score the pool in reduced space; keep the closest max_degree.
        pr, pc = np.nonzero(pool >= 0)
        pd = np.full(pool.shape, np.inf, dtype=np.float32)
        if pr.size:
            pd[pr, pc] = pair_distances(
                pilot_pts[lo + pr], pilot_pts[pool[pr, pc]], metric
            )
        order = np.argsort(pd, axis=1, kind="stable")
        s_ids = np.take_along_axis(pool, order, axis=1)
        s_d = np.take_along_axis(pd, order, axis=1)
        linked, _, cnt = _compact_rows(s_ids, np.isfinite(s_d), max_degree)
        adj[lo:hi] = linked
        counts[lo:hi] = cnt
    return adj, counts


def build_pilot(
    base: np.ndarray,
    graph: GraphIndex,
    device: DeviceProperties = RTX_A6000,
    metric: str = "l2",
    capacity_bytes: int | None = None,
    sample_ratio: float | None = None,
    pilot_dim: int | None = None,
    reduction: str = "svd",
    max_degree: int | None = None,
    seed: int = 0,
    n_slots: int = 0,
    n_parallel: int = 1,
    k: int = 0,
    train_sample: int = 4096,
) -> PilotIndex:
    """Derive a device-resident pilot subgraph from the full graph.

    ``capacity_bytes`` (default: the planner's device capacity) bounds the
    pilot working set; ``sample_ratio`` / ``pilot_dim`` are optional
    overrides that :func:`size_pilot` shrinks as needed to fit.  The pilot
    adjacency reuses the wave-machinery primitives: closest-kept projected
    edges, reverse-edge symmetrization via ``_add_links``, and BFS
    connectivity repair from the pilot medoid.
    """
    if reduction not in REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}"
        )
    base = np.asarray(base, dtype=np.float32)
    n, dim = base.shape
    if graph.n_vertices != n:
        raise ValueError("graph and base disagree on vertex count")
    if max_degree is None:
        max_degree = max(4, graph.max_degree)
    cap = capacity_bytes if capacity_bytes is not None else 48 * 2**30
    sample_ratio, pilot_dim = size_pilot(
        n, dim, max_degree, cap,
        pilot_dim=pilot_dim, sample_ratio=sample_ratio,
        n_slots=n_slots, n_parallel=n_parallel, k=k,
    )
    rng = np.random.default_rng(seed)
    n_p = min(n, max(2, int(round(sample_ratio * n))))
    sample_ids = np.sort(rng.choice(n, size=n_p, replace=False))
    full_to_pilot = np.full(n, -1, dtype=np.int64)
    full_to_pilot[sample_ids] = np.arange(n_p)

    components, mean = _fit_projection(
        base, pilot_dim, reduction, metric, rng, train_sample
    )
    pts = base[sample_ids]
    if mean is not None:
        pts = pts - mean
    pilot_pts = np.ascontiguousarray(pts @ components, dtype=np.float32)

    nbr_mat, degrees = graph.neighbor_matrix()
    adj, counts = _project_edges(
        pilot_pts, sample_ids, full_to_pilot, nbr_mat, degrees,
        max_degree, metric,
    )
    # Symmetrize: every projected edge also links back, closest-trimmed at
    # the degree cap — pilot graphs are sparse enough that navigability
    # leans on reverse reachability.
    er, ec = np.nonzero(adj >= 0)
    if er.size:
        _add_links(
            pilot_pts, adj, counts, adj[er, ec], er.astype(np.int64),
            max_degree, metric, trim="closest", dedup=True,
        )
    entry = medoid(pilot_pts, metric)
    _repair_connectivity(pilot_pts, adj, counts, max_degree, metric, entry)
    pgraph = GraphIndex.from_matrix(adj, kind="pilot")

    plan = plan_memory(
        device, n_p, pilot_dim, pgraph.n_edges,
        n_slots, n_parallel, k, capacity_bytes=capacity_bytes,
    )
    return PilotIndex(
        sample_ids=sample_ids,
        points=pilot_pts,
        graph=pgraph,
        components=components,
        mean=mean,
        reduction=reduction,
        sample_ratio=float(sample_ratio),
        full_n=n,
        full_dim=dim,
        plan=plan,
    )

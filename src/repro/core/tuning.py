"""GPU parameter tuning: the analytic §IV-C tuner and the empirical one.

Given device properties (Table II), the slot count, and the search's
shared-memory layout, choose the largest ``N_parallel`` (CTAs per query)
such that every CTA of every slot is *simultaneously resident* — the hard
requirement of a persistent kernel:

    N_parallel · slot ≤ N_SM · N_max_block_per_SM                    (1)
    N_block_per_SM = align(N_parallel · slot / N_SM)                 (2)
    M_avail_per_block ≤ M_per_SM / N_block_per_SM − M_reserved       (3)

Threads per block are pinned to the warp size (the paper does this "to
facilitate management and shuffle operations").  ``M_reserved_per_block``
scales with the dataset dimension: high-dimensional datasets reserve extra
shared memory as a runtime cache (end of §IV-C).

The analytic tuner guarantees *feasibility* (everything resident); it does
not know which feasible point is fastest for a given dataset and recall
target.  :func:`autotune_algas` closes that loop the way VDTuner [42]
motivates: it measures a small query sample under candidate configurations
and keeps the lowest-latency one that meets the target recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..gpusim.device import DeviceProperties
from ..gpusim.occupancy import SearchMemoryLayout
from ..graphs.base import GraphIndex
from ..search.batched import per_cta_capacity

__all__ = [
    "MAX_PARALLEL",
    "TuningResult",
    "reserved_cache_bytes",
    "plan_layout",
    "tune",
    "Trial",
    "AutoTuneResult",
    "autotune_algas",
]

#: The cap on CTAs a query when a system names none: ALGAS's serving
#: default, and the split a stream's reads and insertion searches run at.
MAX_PARALLEL = 8


@dataclass(frozen=True)
class TuningResult:
    """Chosen persistent-kernel configuration."""

    n_parallel: int  # CTAs per query (per slot)
    n_slots: int
    threads_per_block: int
    n_block_per_sm: int
    block_shared_mem_bytes: int  # M_avail actually charged per block
    reserved_cache_per_block: int  # M_reserved_per_block
    per_cta_cand_len: int
    expand_list_len: int
    feasible: bool

    @property
    def total_blocks(self) -> int:
        return self.n_parallel * self.n_slots


def reserved_cache_bytes(dim: int, quantum: int = 1024) -> int:
    """Runtime-cache reservation, scaled with dimension.

    One staged vector's worth of bytes rounded up to 1 KiB: 960-d float32
    vectors reserve 4 KiB, 128-d vectors 1 KiB — mirroring the paper's
    "size adjustable based on the data dimension".
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    return math.ceil(dim * 4 / quantum) * quantum


def plan_layout(
    l_total: int, n_parallel: int, k: int, max_degree: int, dim: int, beam_width: int = 1
) -> SearchMemoryLayout:
    """Shared-memory layout of one search CTA for a given split.

    The candidate budget ``l_total`` is divided across the slot's CTAs
    (each keeps at least ``k``); the expand list must hold the neighbours
    of every candidate expanded in one maintenance cycle.
    """
    per_cta = per_cta_capacity(l_total, n_parallel, k)
    expand = max(1, max_degree) * max(1, beam_width)
    return SearchMemoryLayout(cand_list_len=per_cta, expand_list_len=expand, dim=dim)


def tune(
    device: DeviceProperties,
    n_slots: int,
    l_total: int,
    k: int,
    max_degree: int,
    dim: int,
    beam_width: int = 1,
    max_parallel: int = 32,
) -> TuningResult:
    """Pick the largest feasible ``N_parallel`` for the persistent kernel.

    Iterates ``N_parallel`` downward from ``max_parallel``; for each value
    checks residency (1) and the shared-memory constraint (3) with the
    per-block footprint implied by :func:`plan_layout`.  Returns the first
    feasible configuration; if even ``N_parallel = 1`` does not fit, the
    result has ``feasible=False`` (callers must shrink ``l_total`` or the
    slot count).
    """
    if n_slots <= 0:
        raise ValueError("n_slots must be positive")
    reserved = reserved_cache_bytes(dim)
    for n_parallel in range(min(max_parallel, device.max_resident_blocks), 0, -1):
        total_blocks = n_parallel * n_slots
        if total_blocks > device.max_resident_blocks:  # condition (1)
            continue
        layout = plan_layout(l_total, n_parallel, k, max_degree, dim, beam_width)
        footprint = layout.total_bytes() + device.reserved_shared_mem_per_block
        if footprint > device.shared_mem_per_block_optin:
            continue
        n_block_per_sm = math.ceil(total_blocks / device.num_sms)  # (2), align up
        if n_block_per_sm > device.max_blocks_per_sm:
            continue
        m_avail = device.shared_mem_per_sm / n_block_per_sm - reserved  # (3)
        if footprint <= m_avail:
            return TuningResult(
                n_parallel=n_parallel,
                n_slots=n_slots,
                threads_per_block=device.warp_size,
                n_block_per_sm=n_block_per_sm,
                block_shared_mem_bytes=footprint,
                reserved_cache_per_block=reserved,
                per_cta_cand_len=layout.cand_list_len,
                expand_list_len=layout.expand_list_len,
                feasible=True,
            )
    # Infeasible even at N_parallel = 1: report the single-CTA layout.
    layout = plan_layout(l_total, 1, k, max_degree, dim, beam_width)
    return TuningResult(
        n_parallel=1,
        n_slots=n_slots,
        threads_per_block=device.warp_size,
        n_block_per_sm=math.ceil(n_slots / device.num_sms),
        block_shared_mem_bytes=layout.total_bytes() + device.reserved_shared_mem_per_block,
        reserved_cache_per_block=reserved,
        per_cta_cand_len=layout.cand_list_len,
        expand_list_len=layout.expand_list_len,
        feasible=False,
    )


# ------------------------------------------------------------ empirical
@dataclass(frozen=True)
class Trial:
    """One measured configuration."""

    l_total: int
    n_parallel: int
    beam: bool
    recall: float
    mean_latency_us: float
    throughput_qps: float


@dataclass
class AutoTuneResult:
    """Outcome of an auto-tuning run."""

    best: Trial | None
    target_recall: float
    trials: list[Trial] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return self.best is not None and self.best.recall >= self.target_recall


def autotune_algas(
    base: np.ndarray,
    graph: GraphIndex,
    queries: np.ndarray,
    gt_ids: np.ndarray,
    target_recall: float = 0.95,
    k: int = 16,
    batch_size: int = 16,
    metric: str = "l2",
    device=None,
    sample: int = 32,
    l_grid: tuple[int, ...] = (32, 64, 128, 256, 512),
    parallel_grid: tuple[int, ...] = (2, 4, 8),
    seed: int = 0,
) -> AutoTuneResult:
    """Find the fastest ALGAS configuration meeting ``target_recall``.

    A two-stage grid: first the smallest candidate-list size reaching the
    target at the analytic tuner's ``N_parallel`` (beam on), then
    ``N_parallel`` and the beam switch refined at that list size.
    ``gt_ids`` must be exact neighbour ids for ``queries`` with at least
    ``k`` columns.  ``sample`` queries are measured per trial (tuning cost
    is ~|l_grid| + |parallel_grid| + 1 serve runs over the sample).

    Grid points that cannot run are skipped: ``l_total < k``, and an
    ``N_parallel`` above what :func:`tune` can make resident.  Any other
    error (non-finite vectors, an unknown metric, ...) propagates.
    """
    from ..data.groundtruth import recall as recall_of
    from ..gpusim.device import RTX_A6000
    from .pipeline import ALGASSystem

    device = device or RTX_A6000
    if not 0 < target_recall <= 1:
        raise ValueError("target_recall must be in (0, 1]")
    if gt_ids.shape[1] < k:
        raise ValueError("ground truth narrower than k")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(queries), size=min(sample, len(queries)), replace=False)
    q = queries[idx]
    sub_gt = gt_ids[idx][:, :k]

    trials: list[Trial] = []

    def measure(l_total: int, n_parallel: int | None, beam: bool) -> Trial | None:
        if l_total < k:
            return None
        # An explicit N_parallel caps the tuner's search; it is infeasible
        # when the tuner cannot reach it.
        cap = {} if n_parallel is None else {"max_parallel": n_parallel}
        system = ALGASSystem(
            base, graph, device=device, metric=metric, k=k,
            l_total=l_total, batch_size=batch_size, beam=beam, seed=seed, **cap,
        )
        if n_parallel is not None and system.n_parallel < n_parallel:
            return None
        rep = system.serve(q)
        t = Trial(l_total, system.n_parallel, beam, recall_of(rep.ids, sub_gt),
                  rep.mean_latency_us, rep.throughput_qps)
        trials.append(t)
        return t

    # Stage 1: smallest L reaching the target (beam on, auto N_parallel).
    stage1: Trial | None = None
    for l_total in l_grid:
        t = measure(l_total, None, True)
        if t is not None and t.recall >= target_recall:
            stage1 = t
            break
    if stage1 is None:
        # target unreachable on this grid — return the best-recall trial
        best = max(trials, key=lambda t: (t.recall, -t.mean_latency_us), default=None)
        return AutoTuneResult(best=best, target_recall=target_recall, trials=trials)

    # Stage 2: refine N_parallel and the beam switch at the chosen L.
    candidates = [stage1]
    for npar in parallel_grid:
        if npar == stage1.n_parallel:
            continue
        t = measure(stage1.l_total, npar, True)
        if t is not None and t.recall >= target_recall:
            candidates.append(t)
    t = measure(stage1.l_total, stage1.n_parallel, False)
    if t is not None and t.recall >= target_recall:
        candidates.append(t)

    best = min(candidates, key=lambda t: t.mean_latency_us)
    return AutoTuneResult(best=best, target_recall=target_recall, trials=trials)

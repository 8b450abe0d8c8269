"""Analytic cost model: op traces → time.

Prices every step of an op trace as the sum of five components
(matching the kernel phases in §IV-B of the paper):

``select``   scan the candidate list for the next unvisited candidate(s)
``fetch``    read adjacency lists from global memory
``filter``   probe/update the visited bitmap
``distance`` per-dimension FMAs distributed over the CTA's threads plus a
             warp-shuffle reduction per neighbour (Alg. 1 lines 10–13)
``sort``     bitonic sort of the expand list + bitonic merge into the
             candidate list (the maintenance the paper measures in Fig. 3)

One pricer: :meth:`CostModel.block_cost` prices a whole
:class:`~repro.gpusim.trace.TraceBlock` in array expressions — the only
trace → CTA-duration path ``serve()`` reaches; the single-trace methods
(``cta_cost``, ``cta_duration_us``, …) are one-row blocks through it.  The
readable one-step-at-a-time form of the same formulas is the scalar oracle
``tests/oracles.py::scalar_step_cost``, and the pricer equals it to the bit
(docs/costmodel.md says how; ``tests/test_trace_block.py`` proves it).

Latencies are expressed in SM cycles and converted to microseconds with the
device clock.  The default constants are calibrated so that, at the paper's
operating points, sorting accounts for roughly 20–34 % of search time on the
low/medium-dimension datasets and proportionally less at 960 d — the ratios
Fig. 3 reports.  Absolute times are not calibrated to the A6000 (out of
scope per DESIGN.md); only the *composition* and *scaling* of the time are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .device import DeviceProperties
from .trace import PRECISION_TAGS, CTATrace, QueryTrace, TraceBlock

__all__ = [
    "CostParams",
    "CTACost",
    "BlockCost",
    "CostModel",
    "bitonic_stage_count",
    "step_op_groups",
]

_FLOAT32 = PRECISION_TAGS.index("float32")
_INT8 = PRECISION_TAGS.index("int8")


def _ceil_div(a, b):
    """Ceiling division of non-negative ints (scalars or int arrays)."""
    return -(-a // b)


def bitonic_stage_count(n: int) -> int:
    """Compare-exchange stages of a full bitonic sort of ``n`` elements.

    ``n`` is rounded up to a power of two (GPU bitonic networks pad with
    sentinels).  A full sort of ``2^k`` items has ``k(k+1)/2`` stages.
    """
    if n <= 1:
        return 0
    k = max(1, math.ceil(math.log2(n)))
    return k * (k + 1) // 2


def bitonic_merge_stage_count(n: int) -> int:
    """Stages of a bitonic *merge* of two sorted runs totalling ``n`` items."""
    if n <= 1:
        return 0
    return max(1, math.ceil(math.log2(n)))


def _padded_half(n: int) -> int:
    """Compare-exchange pairs per stage: half of ``n`` padded to 2^k."""
    return (1 << max(1, math.ceil(math.log2(n)))) // 2


def bitonic_sort_groups(n: int, threads: int) -> int:
    """Warp-wide compare-exchange groups of a bitonic sort of ``n`` items."""
    if n <= 1:
        return 0
    return bitonic_stage_count(n) * _ceil_div(_padded_half(n), threads)


def bitonic_merge_groups(n: int, threads: int) -> int:
    """Warp-wide compare-exchange groups of a bitonic merge of ``n`` items."""
    if n <= 1:
        return 0
    return bitonic_merge_stage_count(n) * _ceil_div(_padded_half(n), threads)


def _per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` over an int column via a table of its distinct values.

    The block pricer takes bitonic stage counts from the scalar functions
    above this way instead of ``np.log2``, whose rounding need not match
    ``math.log2`` at every input.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    table = np.array([fn(int(v)) for v in distinct], dtype=np.int64)
    return table[inverse]


def step_op_groups(
    block: TraceBlock, threads: int, int8_mac_pack: float
) -> dict[str, np.ndarray]:
    """Warp-wide op-group counts of every step of ``block`` (int64).

    The one copy of the counting formulas: :meth:`CostModel.block_step_costs`
    turns these into time, :func:`~repro.gpusim.calibrate.op_count_features`
    sums them per row.  ``fma`` is the distance kernel's lane
    iterations (int8 packs ``int8_mac_pack`` MACs per lane-cycle),
    ``shuffle`` the reduction steps,
    ``cmpex_sort`` / ``cmpex_merge`` the bitonic network's compare-exchange
    groups (0 where the step skipped the sort), ``scan_iters`` the
    selection scan *per expanded candidate*, ``bitmap`` the visited-probe
    groups.
    """
    t = threads
    n_new = block.n_new_points.astype(np.int64)
    pack = max(int(int8_mac_pack), 1)
    iters = _ceil_div(
        n_new * block.step_dim, np.where(block.precision == _INT8, t * pack, t)
    )
    checks = block.n_visited_checks.astype(np.int64)
    expand_n = np.maximum(block.sort_size - block.cand_list_len, 0)
    return {
        "fma": iters,
        "shuffle": n_new * max(1, int(math.log2(t))),
        "cmpex_sort": block.did_sort * _per_distinct(
            lambda n: bitonic_sort_groups(n, t), expand_n),
        "cmpex_merge": block.did_sort * _per_distinct(
            lambda n: bitonic_merge_groups(n, t), block.sort_size),
        "scan_iters": _ceil_div(
            np.maximum(block.cand_list_len, 1).astype(np.int64), t),
        "bitmap": np.where(checks > 0, _ceil_div(checks, t), 0),
    }


@dataclass(frozen=True)
class CostParams:
    """Per-operation cycle costs (tunable; defaults per module docstring)."""

    #: cycles per warp-wide distance iteration (32 loads + FMAs, pipelined)
    fma_iter_cycles: float = 8.0
    #: cycles per warp-shuffle step of the per-neighbour reduction
    shuffle_cycles: float = 2.0
    #: cycles per warp-wide bitonic compare-exchange group (shared memory
    #: load/store pair + compare + syncwarp)
    cmpex_cycles: float = 16.0
    #: cycles per warp-wide candidate-list scan iteration during selection
    scan_cycles: float = 8.0
    #: cycles per warp-wide visited-bitmap probe group (L2-cached global)
    bitmap_cycles: float = 30.0
    #: fixed per-step control overhead (loop, branches, syncs)
    step_fixed_cycles: float = 50.0
    #: CPU nanoseconds per heap operation in the host-side TopK merge
    #: (cache-hot small heaps on a modern core)
    cpu_heap_op_ns: float = 2.5
    #: CPU nanoseconds per element for result filtering/copy on the host
    cpu_filter_ns: float = 1.0
    #: cycles per element-move group in the GPU divide-and-conquer merge
    #: kernel (global-memory bound — this is why the paper offloads it)
    gpu_merge_elem_cycles: float = 60.0
    #: int8 MACs packed per lane-cycle in the quantized distance kernel
    #: (DP4A: one instruction multiply-accumulates 4 int8 pairs)
    int8_mac_pack: float = 4.0
    #: CPU nanoseconds per dimension of a host-side float32 distance
    #: (SIMD FMA throughput on one core; the hybrid tier's refine walk)
    cpu_fma_ns: float = 0.05
    #: effective host memory bandwidth for streaming full-precision
    #: vectors during CPU refinement, GB/s — each fetch is a contiguous
    #: multi-KB row, so this sits near DDR5 sequential rates, still far
    #: below device HBM (which is exactly why the pilot stage runs on GPU)
    host_mem_bw_gbps: float = 40.0


@dataclass(frozen=True)
class CTACost:
    """Aggregate cost of a CTA trace, microseconds."""

    select_us: float
    fetch_us: float
    filter_us: float
    distance_us: float
    sort_us: float
    result_write_us: float
    n_steps: int

    @property
    def compute_us(self) -> float:
        """Everything except sorting (the paper's "calculation" bucket)."""
        return (
            self.select_us
            + self.fetch_us
            + self.filter_us
            + self.distance_us
            + self.result_write_us
        )

    @property
    def total_us(self) -> float:
        return self.compute_us + self.sort_us

    @property
    def sort_fraction(self) -> float:
        """Share of time spent sorting (Fig. 3 / Fig. 17 quantity)."""
        t = self.total_us
        return self.sort_us / t if t > 0 else 0.0


@dataclass(frozen=True)
class BlockCost:
    """Per-row cost components of a priced block, ``(rows,)`` µs arrays.

    The column twin of :class:`CTACost`: same fields, same operator order
    in the derived totals, so ``block_cost(b).row(r)`` is bit-equal to the
    scalar accumulation over row ``r``.
    """

    select_us: np.ndarray
    fetch_us: np.ndarray
    filter_us: np.ndarray
    distance_us: np.ndarray
    sort_us: np.ndarray
    result_write_us: np.ndarray
    n_steps: np.ndarray

    @property
    def compute_us(self) -> np.ndarray:
        return (
            self.select_us
            + self.fetch_us
            + self.filter_us
            + self.distance_us
            + self.result_write_us
        )

    @property
    def total_us(self) -> np.ndarray:
        """CTA busy time per row — what a :class:`QueryJob` is built from."""
        return self.compute_us + self.sort_us

    @property
    def sort_fraction(self) -> np.ndarray:
        t = self.total_us
        return np.divide(self.sort_us, t, out=np.zeros_like(t), where=t > 0)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def row(self, r: int) -> CTACost:
        return CTACost(*(col[r].item() for col in self._columns()))

    def per_query(self, n_ctas: int) -> "BlockCost":
        """Components summed over each query's CTAs, first CTA first."""
        return BlockCost(*(
            np.cumsum(col.reshape(-1, n_ctas), axis=1)[:, -1]
            for col in self._columns()
        ))


class CostModel:
    """Prices traces on a given device with given per-op constants."""

    def __init__(
        self,
        device: DeviceProperties,
        params: CostParams | None = None,
        threads_per_cta: int | None = None,
    ):
        self.device = device
        self.params = params or CostParams()
        # Paper §IV-C: threads per block are set to the warp size.
        if threads_per_cta is not None and threads_per_cta <= 0:
            raise ValueError("threads_per_cta must be positive")
        self.threads = int(threads_per_cta if threads_per_cta else device.warp_size)
        self._us = device.cycles_to_us

    # ---------------------------------------------------------------- blocks
    def block_step_costs(self, block: TraceBlock) -> np.ndarray:
        """``(5, n_steps)`` µs: select, fetch, filter, distance, sort rows.

        The scalar oracle (``tests/oracles.py::scalar_step_cost``)
        transcribed operator for operator over columns (every product and
        quotient in the same order, in float64), so each entry is bit-equal
        to its scalar term.
        """
        p, dev, us = self.params, self.device, self._us
        g = step_op_groups(block, self.threads, p.int8_mac_pack)
        bw = dev.global_mem_bw_gbps * 1e3
        n_exp = block.n_expanded
        select = (us(g["scan_iters"] * p.scan_cycles * n_exp)
                  + us(p.step_fixed_cycles))
        fetch = (n_exp * us(dev.global_mem_latency_cycles)
                 + block.n_neighbors_fetched.astype(np.int64) * 4 / bw)
        filter_ = us(g["bitmap"] * p.bitmap_cycles)
        lane_cycles = g["fma"] * p.fma_iter_cycles
        vec_bytes = (block.n_new_points.astype(np.int64) * block.step_dim
                     * np.where(block.precision == _FLOAT32, 4, 1))
        distance = us(lane_cycles + g["shuffle"] * p.shuffle_cycles) + vec_bytes / bw
        sort = us(g["cmpex_sort"] * p.cmpex_cycles + g["cmpex_merge"] * p.cmpex_cycles)
        return np.stack([select, fetch, filter_, distance, sort])

    def block_step_us(self, block: TraceBlock) -> np.ndarray:
        """Duration of every step of ``block``: the sum of its five terms."""
        select, fetch, filter_, distance, sort = self.block_step_costs(block)
        return select + fetch + filter_ + distance + sort

    def block_cost(self, block: TraceBlock) -> BlockCost:
        """Price every CTA row of ``block``.

        Per-row sums run left to right along the step axis — the scalar
        ``acc += step`` order.  ``ndarray.sum`` / ``np.add.reduce`` are
        pairwise and differ from it in the last ulp, so the loop below is
        over step *positions* (≤ the longest row), all rows at once.
        """
        steps = self.block_step_costs(block)
        acc = np.zeros((steps.shape[0], block.n_rows))
        for j in range(int(block.lens.max(initial=0))):
            live = np.flatnonzero(block.lens > j)
            acc[:, live] += steps[:, block.starts[live] + j]
        dev = self.device
        write = np.where(
            block.result_len > 0,
            self._us(dev.global_mem_latency_cycles)
            + block.result_len.astype(np.int64) * 8 / (dev.global_mem_bw_gbps * 1e3),
            0.0,
        )
        return BlockCost(*acc, write, block.lens.astype(np.int64))

    def cta_durations_us(self, block: TraceBlock) -> np.ndarray:
        """``(rows,)`` busy time of every CTA row of ``block``."""
        return self.block_cost(block).total_us

    # ------------------------------------------------- single traces (views)
    def cta_cost(self, trace: CTATrace) -> CTACost:
        """Aggregate cost of everything a CTA did for one query."""
        return self.block_cost(TraceBlock.from_traces([trace])).row(0)

    def cta_duration_us(self, trace: CTATrace) -> float:
        """Wall-clock a CTA is busy serving its share of one query."""
        return self.cta_cost(trace).total_us

    def step_durations_us(self, trace: CTATrace) -> list[float]:
        """Per-step durations (used by the partitioned-kernel ablation)."""
        return self.block_step_us(TraceBlock.from_traces([trace])).tolist()

    # ------------------------------------------------------------------ CPU
    def cpu_merge_us(self, n_lists: int, k: int) -> float:
        """Host-side priority-queue merge of ``n_lists`` sorted TopK lists.

        This is step ④ of the paper's search process (Result Merge&Filter).
        The k-way heap merge touches only the list heads plus the ``k``
        emitted elements — O(T + k·log T) operations, *not* O(T·k) — which
        is precisely why the CPU keeps up with the GPU (§IV-B).
        """
        if n_lists <= 1:
            return self.params.cpu_filter_ns * k * 1e-3
        ops = n_lists + k * (1 + math.log2(n_lists))
        return (ops * self.params.cpu_heap_op_ns + k * self.params.cpu_filter_ns) * 1e-3

    def cpu_refine_us(self, n_dists: int, dim: int, ef: int = 1) -> float:
        """Host-side bounded graph walk of the hybrid tier (stage 3).

        ``n_dists`` full-width float32 distances against host-resident
        vectors: each costs ``dim`` SIMD FMAs plus streaming ``4·dim``
        bytes from host memory (the dominant term at high dimension —
        random vector fetches run at DDR, not HBM, speed), and each scored
        point pays ~``log2(ef)`` heap operations to maintain the bounded
        candidate list.
        """
        if n_dists <= 0:
            return 0.0
        p = self.params
        bytes_ = n_dists * dim * 4
        heap_ops = n_dists * max(1.0, math.log2(max(ef, 2)))
        ns = (
            n_dists * dim * p.cpu_fma_ns
            + heap_ops * p.cpu_heap_op_ns
            + bytes_ / p.host_mem_bw_gbps
        )
        return ns * 1e-3

    # ---------------------------------------------------------- GPU (merge)
    def gpu_merge_us(self, n_lists: int, k: int) -> float:
        """Cross-CTA divide-and-conquer merge *on the GPU* (ablation).

        Models the baseline CAGRA behaviour the paper argues against: a
        separate merge pass over global memory where, per round, half the
        participating threads idle.  Includes the extra kernel launch that
        interrupts a persistent kernel.
        """
        if n_lists <= 1:
            return 0.0
        p, t = self.params, self.threads
        rounds = max(1, math.ceil(math.log2(n_lists)))
        cycles = 0.0
        active = n_lists
        for _ in range(rounds):
            pairs = _ceil_div(active, 2)
            cycles += _ceil_div(pairs * k, t) * p.gpu_merge_elem_cycles
            active = pairs
        return self.device.kernel_launch_us + self._us(cycles)

    # ------------------------------------------------------------- queries
    def query_gpu_time_us(self, qt: QueryTrace) -> float:
        """GPU time for one query = the slowest of its CTAs (they run
        concurrently on distinct blocks)."""
        if not qt.ctas:
            return 0.0
        return float(self.cta_durations_us(TraceBlock.from_traces([qt])).max())

    def query_cost_summary(self, qt: QueryTrace) -> CTACost:
        """Summed breakdown over all CTAs of a query (for Fig. 3/17)."""
        if not qt.ctas:
            return CTACost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
        block = TraceBlock.from_traces([qt])
        return self.block_cost(block).per_query(block.n_ctas).row(0)

"""Latency/step statistics: percentiles, bubble waste, step distributions.

These implement the quantitative analyses of the paper's motivation section:
step-count distributions (Fig. 1/2), the batch *waste rate* (§III-A:
22.9–33.7 %), and sorting-time shares (Fig. 3/17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.serving import QueryRecord
from ..gpusim.costmodel import CostModel
from ..gpusim.trace import QueryTrace, TraceBlock

__all__ = [
    "StepStats",
    "step_statistics",
    "batch_step_spread",
    "bubble_waste_rate",
    "sort_time_fraction",
    "latency_percentiles",
]


@dataclass(frozen=True)
class StepStats:
    """Distribution summary of per-query greedy-search step counts."""

    mean: float
    p50: float
    p99: float
    min: int
    max: int

    @property
    def max_over_mean(self) -> float:
        """The paper's Fig. 1 headline: slowest queries reach 147.9–190.2 %
        of the average step count."""
        return self.max / self.mean if self.mean else 0.0


def step_counts(traces: TraceBlock | list[QueryTrace]) -> np.ndarray:
    """Per-query step counts (max over the query's CTAs, seed step excluded)."""
    block = TraceBlock.from_traces(traces)
    return block.lens.reshape(len(block), block.n_ctas).max(axis=1) - 1


def step_statistics(traces: TraceBlock | list[QueryTrace]) -> StepStats:
    """Summarize the step-count distribution of a query set (Fig. 1)."""
    if not len(traces):
        raise ValueError("need at least one trace")
    s = step_counts(traces)
    return StepStats(
        mean=float(s.mean()),
        p50=float(np.percentile(s, 50)),
        p99=float(np.percentile(s, 99)),
        min=int(s.min()),
        max=int(s.max()),
    )


def batch_step_spread(
    traces: TraceBlock | list[QueryTrace], batch_size: int
) -> list[tuple[int, int, float]]:
    """Per-batch (min_steps, max_steps, slowest/fastest ratio) — Fig. 2.

    Queries are grouped into batches in submission order (as a serving
    system would form them).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    s = step_counts(traces)
    out = []
    for lo in range(0, len(s), batch_size):
        chunk = s[lo : lo + batch_size]
        if len(chunk) < 2:
            continue
        mn, mx = int(chunk.min()), int(chunk.max())
        out.append((mn, mx, mx / mn if mn else float("inf")))
    return out


def bubble_waste_rate(records: list[QueryRecord]) -> float:
    """Fraction of reserved GPU time wasted waiting on batch stragglers.

    For each query, ``bubble = batch_return − own_gpu_end``; the waste rate
    is total bubble over total slot-reserved time (gpu time + bubble),
    matching §III-A's "compared to the average latency of active queries,
    the waste rate ranges from 22.9 % to 33.7 %".
    """
    if not records:
        return 0.0
    bubble = np.array([r.bubble_us for r in records])
    active = np.array([max(r.gpu_end_us - r.gpu_start_us, 0.0) for r in records])
    denom = float((bubble + active).sum())
    return float(bubble.sum()) / denom if denom > 0 else 0.0


def sort_time_fraction(
    traces: TraceBlock | list[QueryTrace], cost_model: CostModel
) -> float:
    """Mean share of search time spent in candidate-list sorting (Fig. 3)."""
    if not len(traces):
        raise ValueError("need at least one trace")
    block = TraceBlock.from_traces(traces)
    per_query = cost_model.block_cost(block).per_query(block.n_ctas)
    return float(np.mean(per_query.sort_fraction))


def latency_percentiles(
    records: list[QueryRecord], qs: tuple[float, ...] = (50, 90, 99)
) -> dict[float, float]:
    """Service-latency percentiles of a serve run."""
    lat = np.array([r.service_latency_us for r in records])
    return {q: float(np.percentile(lat, q)) for q in qs}

"""Exhaustive (Flat) scan baseline.

FAISS-GPU's ``Flat`` index: every query computes distances to the whole
corpus and TopK-selects — recall 1.0 by construction, cost linear in ``n``.
Useful as the recall anchor and as the small-corpus crossover point in the
benchmarks (graphs only win once ``n`` outgrows the scan).

The GPU profile is one dense GEMM-like pass plus a selection, synthesized
as a single-step trace priced by the same cost model as everything else.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import query_distances
from ..gpusim.trace import CTATrace, StepRecord
from .batched import SearchResult

__all__ = ["FlatIndex"]


class FlatIndex:
    """Brute-force index over a base set."""

    def __init__(self, points: np.ndarray, metric: str = "l2"):
        self.points = np.asarray(points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, dim) array")
        self.metric = metric

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def search(self, query: np.ndarray, k: int, record_trace: bool = True) -> SearchResult:
        """Exact TopK by full scan."""
        if not 0 < k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}]")
        query = np.asarray(query, dtype=np.float32)
        d = query_distances(query, self.points, self.metric)
        part = np.argpartition(d, k - 1)[:k]
        order = part[np.argsort(d[part], kind="stable")]
        trace = None
        if record_trace:
            dim = int(self.points.shape[1])
            trace = CTATrace(
                steps=[
                    StepRecord(
                        select_offset=0, n_expanded=0,
                        n_neighbors_fetched=self.n, n_visited_checks=0,
                        n_new_points=self.n, dim=dim,
                        sort_size=int(min(self.n, 4 * k)), cand_list_len=0,
                        did_sort=True,
                    )
                ],
                result_len=k,
            )
        return SearchResult(
            ids=order.astype(np.int64), dists=d[order].astype(np.float32),
            trace=trace,
        )

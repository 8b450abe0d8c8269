"""GANNS-style baseline system (Yu et al., as used in §VI).

Search: one CTA per query (GANNS has no multi-CTA mode — §VI-A notes this
is why it "fails to fully utilize GPU resources in small-batch settings"),
greedy maintenance over a full-size candidate list.  Serving: static
batches in a single kernel; no cross-CTA merge is needed, the host only
copies out the per-query TopK.  Per the paper's methodology, the baseline
is modified to dispatch small batches rather than the entire query set.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import BaseGraphSystem
from ..core.static_batcher import StaticBatchConfig, StaticBatchEngine

__all__ = ["GANNSSystem"]


class GANNSSystem(BaseGraphSystem):
    name = "ganns"

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("beam", None)
        kwargs["n_parallel"] = 1  # single-CTA search only
        super().__init__(*args, **kwargs)

    def search_entries(self, queries: np.ndarray, seed: int) -> np.ndarray:
        """GANNS enters every query at the medoid alone."""
        return np.full((len(queries), 1, 1), self._medoid, dtype=np.int64)

    def make_engine(self, telemetry=None, faults=None,
                    resilience=None) -> StaticBatchEngine:
        if faults is not None or resilience is not None:
            raise ValueError(
                "fault injection / resilience is a dynamic-engine feature; "
                "the static baselines do not support it"
            )
        cfg = StaticBatchConfig(
            batch_size=self.batch_size,
            n_parallel=1,
            k=self.k,
            merge_on_gpu=False,  # nothing to merge; host copies results
            mem_per_block=self.mem_per_block(),
            reserved_cache_per_block=self.tuning.reserved_cache_per_block,
        )
        return StaticBatchEngine(self.device, self.cost_model, cfg, telemetry=telemetry)

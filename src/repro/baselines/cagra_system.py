"""CAGRA-style baseline system (Ootomo et al., as used in §VI).

Search: multi-CTA with random entry points, strictly greedy maintenance
(no beam extend).  Serving: *static* batches — the whole batch launches as
one kernel and returns as a unit — with the cross-CTA TopK merge performed
by a GPU merge kernel (the design ALGAS's GPU–CPU cooperation replaces).
With ``batch_size=1`` this is the paper's "CAGRA single query" row of
Table I.
"""

from __future__ import annotations

from ..core.pipeline import BaseGraphSystem
from ..core.static_batcher import StaticBatchConfig, StaticBatchEngine

__all__ = ["CAGRASystem"]


class CAGRASystem(BaseGraphSystem):
    name = "cagra"

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("beam", None)  # CAGRA has no beam extend
        super().__init__(*args, **kwargs)

    def make_engine(self, telemetry=None, faults=None,
                    resilience=None) -> StaticBatchEngine:
        if faults is not None or resilience is not None:
            raise ValueError(
                "fault injection / resilience is a dynamic-engine feature; "
                "the static baselines do not support it"
            )
        cfg = StaticBatchConfig(
            batch_size=self.batch_size,
            n_parallel=self.n_parallel,
            k=self.k,
            merge_on_gpu=True,
            mem_per_block=self.mem_per_block(),
            reserved_cache_per_block=self.tuning.reserved_cache_per_block,
        )
        return StaticBatchEngine(self.device, self.cost_model, cfg, telemetry=telemetry)

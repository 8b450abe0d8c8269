"""IVF baseline system (FAISS-GPU style, as used in §VI).

Search: IVF-Flat (:class:`repro.search.ivf.IVFFlatIndex`) — coarse
quantizer scan + exhaustive scan of ``nprobe`` inverted lists.  Serving:
static batches, one block per query, results copied to the host (there is
no cross-CTA merge).  Recall is controlled by ``nprobe`` rather than by a
candidate-list length.  A serve runs :meth:`BaseGraphSystem.serve`, the
one serve body every system shares: only the search step is IVF's own.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import BaseGraphSystem
from ..core.static_batcher import StaticBatchConfig, StaticBatchEngine
from ..data.metrics import query_batch
from ..gpusim.costmodel import CostModel, CostParams
from ..gpusim.device import RTX_A6000, DeviceProperties
from ..gpusim.trace import TraceBlock
from ..search.ivf import IVFFlatIndex

__all__ = ["IVFSystem"]


class IVFSystem:
    """IVF-Flat serving system over the simulated GPU."""

    name = "ivf"
    build_info = None
    serve = BaseGraphSystem.serve
    _schedule_step = BaseGraphSystem._schedule_step
    jobs_from_traces = BaseGraphSystem.jobs_from_traces

    def __init__(
        self,
        base: np.ndarray,
        nlist: int = 128,
        nprobe: int = 8,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        batch_size: int = 16,
        cost_params: CostParams | None = None,
        mem_per_block: int = 8192,
        seed: int = 0,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        self.index = IVFFlatIndex(base, nlist=nlist, metric=metric, seed=seed)
        self.nprobe = int(nprobe)
        self.device = device
        self.metric = metric
        self.k = k
        self.batch_size = batch_size
        self.mem_per_block = mem_per_block
        self.cost_model = CostModel(device, cost_params)

    @property
    def n_parallel(self) -> int:
        return 1

    def search_all(self, queries: np.ndarray):
        """Search query by query (the scalar IVF searcher emits a 2-step
        ``CTATrace``); the traces are converted to one
        :class:`TraceBlock` per call.  An empty batch or one whose width
        is not the corpus's raises ``ValueError``."""
        queries = query_batch(queries, self.index.points.shape[1])
        nq = queries.shape[0]
        ids = np.full((nq, self.k), -1, dtype=np.int64)
        dists = np.full((nq, self.k), np.inf, dtype=np.float32)
        traces = []
        for i in range(nq):
            r = self.index.search(queries[i], self.k, self.nprobe)
            m = min(self.k, len(r.ids))
            ids[i, :m] = r.ids[:m]
            dists[i, :m] = r.dists[:m]
            traces.append(r.trace)
        block = TraceBlock.from_traces(
            traces, dim=int(queries.shape[1]), k=self.k
        )
        return ids, dists, block

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
            merge_on_gpu=False,
            mem_per_block=self.mem_per_block,
        )
        return StaticBatchEngine(self.device, self.cost_model, cfg, telemetry=telemetry)

    def _search_step(self, queries: np.ndarray, cfg, events):
        ids, dists, traces = self.search_all(queries)
        return ids, dists, traces, self.jobs_from_traces(traces, events), {}

"""IVF baseline system (FAISS-GPU style, as used in §VI).

Search: IVF-Flat (:class:`repro.search.ivf.IVFFlatIndex`) — coarse
quantizer scan + exhaustive scan of ``nprobe`` inverted lists.  Serving:
static batches, one block per query, results copied to the host (there is
no cross-CTA merge).  Recall is controlled by ``nprobe`` rather than by a
candidate-list length.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import SystemReport
from ..core.serving import QueryJob, ServeConfig, as_serve_config
from ..core.static_batcher import StaticBatchConfig, StaticBatchEngine
from ..data.workload import resolve_workload
from ..gpusim.costmodel import CostModel, CostParams
from ..gpusim.device import RTX_A6000, DeviceProperties
from ..gpusim.trace import QueryTrace
from ..search.ivf import IVFFlatIndex

__all__ = ["IVFSystem"]


class IVFSystem:
    """IVF-Flat serving system over the simulated GPU."""

    name = "ivf"

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
        queries = np.asarray(queries, dtype=np.float32)
        nq = queries.shape[0]
        ids = np.full((nq, self.k), -1, dtype=np.int64)
        dists = np.full((nq, self.k), np.inf, dtype=np.float32)
        traces: list[QueryTrace] = []
        dim = int(queries.shape[1])
        for i in range(nq):
            r = self.index.search(queries[i], self.k, self.nprobe)
            m = min(self.k, len(r.ids))
            ids[i, :m] = r.ids[:m]
            dists[i, :m] = r.dists[:m]
            traces.append(QueryTrace(ctas=[r.trace], dim=dim, k=self.k))
        return ids, dists, traces

    def make_engine(self, slots: int | None = None, telemetry=None,
                    faults=None, resilience=None) -> StaticBatchEngine:
        if faults is not None or resilience is not None:
            raise ValueError(
                "fault injection / resilience is a dynamic-engine feature; "
                "the static baselines do not support it"
            )
        cfg = StaticBatchConfig(
            batch_size=slots or self.batch_size,
            n_parallel=1,
            k=self.k,
            merge_on_gpu=False,
            mem_per_block=self.mem_per_block,
        )
        return StaticBatchEngine(self.device, self.cost_model, cfg, telemetry=telemetry)

    def serve(
        self,
        queries: np.ndarray,
        config: ServeConfig | None = None,
    ) -> SystemReport:
        cfg = as_serve_config(config, owner=f"{type(self).__name__}.serve")
        if cfg.precision is not None or cfg.rerank_mult is not None:
            raise ValueError(
                "precision/rerank_mult select the graph-traversal distance "
                "substrate; the IVF baselines have no graph traversal "
                "(use IVFPQSystem for a compressed IVF scan)"
            )
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        evs, spec = resolve_workload(cfg.workload, queries.shape[0])
        if spec is not None:
            raise ValueError(
                "admission control (deadline_us/max_queue_depth) requires "
                "the dynamic batching engine; the IVF baselines batch "
                "statically with no admission queue"
            )
        ids, dists, traces = self.search_all(queries)
        jobs = [
            QueryJob(
                query_id=ev.query_id,
                arrival_us=ev.arrival_us,
                cta_durations_us=(self.cost_model.cta_duration_us(tr.ctas[0]),),
                dim=tr.dim,
                k=self.k,
            )
            for ev, tr in zip(sorted(evs, key=lambda e: e.query_id), traces)
        ]
        engine = self.make_engine(slots=cfg.slots, telemetry=cfg.telemetry,
                                  faults=cfg.faults, resilience=cfg.resilience)
        report = engine.serve(jobs)
        return SystemReport(ids=ids, dists=dists, serve=report, traces=traces)


class IVFPQSystem(IVFSystem):
    """IVF-PQ variant of the IVF baseline (ADC scan + exact re-rank).

    PQ compresses the scan to ``m`` table lookups per point; the traces
    reflect that, so IVF-PQ trades scan time for a re-rank pass and some
    recall (see the quantization extension benchmark).
    """

    name = "ivfpq"

    def __init__(
        self,
        base: np.ndarray,
        nlist: int = 128,
        nprobe: int = 8,
        m: int = 8,
        ks: int = 256,
        rerank: int = 64,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        batch_size: int = 16,
        cost_params: CostParams | None = None,
        mem_per_block: int = 8192,
        seed: int = 0,
    ):
        from ..search.quantization import IVFPQIndex

        if k <= 0:
            raise ValueError("k must be positive")
        self.index = IVFPQIndex(base, nlist=nlist, m=m, ks=ks, metric=metric, seed=seed)
        self.nprobe = int(nprobe)
        self.rerank = int(rerank)
        self.device = device
        self.metric = metric
        self.k = k
        self.batch_size = batch_size
        self.mem_per_block = mem_per_block
        self.cost_model = CostModel(device, cost_params)

    def search_all(self, queries: np.ndarray):
        queries = np.asarray(queries, dtype=np.float32)
        nq = queries.shape[0]
        ids = np.full((nq, self.k), -1, dtype=np.int64)
        dists = np.full((nq, self.k), np.inf, dtype=np.float32)
        traces: list[QueryTrace] = []
        dim = int(queries.shape[1])
        for i in range(nq):
            r = self.index.search(queries[i], self.k, self.nprobe, rerank=self.rerank)
            m_ = min(self.k, len(r.ids))
            ids[i, :m_] = r.ids[:m_]
            dists[i, :m_] = r.dists[:m_]
            traces.append(QueryTrace(ctas=[r.trace], dim=dim, k=self.k))
        return ids, dists, traces

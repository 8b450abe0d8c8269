"""End-to-end serving systems: the ALGAS facade and its shared machinery.

A system = graph + search algorithm + batching engine + device.  Serving a
query set has two stages, deliberately separated (DESIGN.md §2):

1. **Search** — run the real search kernels per query, producing exact
   results (recall is measured on these) and per-CTA op traces.
2. **Schedule** — price the traces with the cost model and replay them
   through a batching engine, producing latency/throughput under the
   system's discipline.

:class:`BaseGraphSystem` implements both stages; concrete systems
(:class:`ALGASSystem` here, the baselines in :mod:`repro.baselines`) pick
the search variant and engine.  :meth:`BaseGraphSystem.serve` is the one
serve body; its steps (``_search_step``, ``_schedule_step``) are the hooks
the hybrid tier and the IVF baselines override and the cluster legs call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.metrics import query_batch, require_finite
from ..data.workload import QueryEvent, resolve_workload
from ..gpusim.costmodel import CostModel, CostParams
from ..gpusim.device import RTX_A6000, DeviceProperties
from ..gpusim.trace import TraceBlock
from ..graphs.base import GraphIndex
from ..graphs.utils import medoid
from ..search.batched import (
    BeamConfig,
    batched_multi_cta_search,
    per_cta_capacity,
    query_entries,
    seeds_per_cta,
)
from ..search.precision import PRECISIONS, make_codec
from .dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine, _admit
from .host import host_meta
from .serving import QueryJob, ServeConfig, ServeReport, as_serve_config, price_jobs
from .tuning import MAX_PARALLEL, TuningResult, tune

__all__ = ["SystemReport", "BaseGraphSystem", "ALGASSystem"]


@dataclass
class SystemReport:
    """Everything a serve run produced."""

    ids: np.ndarray  # (n_queries, k) result ids, -1 padded
    dists: np.ndarray  # (n_queries, k) result distances
    serve: ServeReport
    #: op traces of the search stage — a :class:`TraceBlock` (``traces[i]``
    #: / iteration give ``QueryTrace`` views); empty where a server does
    #: not keep them (cluster fan-out)
    traces: TraceBlock | list = field(repr=False, default_factory=list)

    @property
    def mean_latency_us(self) -> float:
        return self.serve.mean_latency_us()

    @property
    def throughput_qps(self) -> float:
        return self.serve.throughput_qps


class BaseGraphSystem:
    """Shared search→price→schedule machinery for graph ANNS systems."""

    #: subclass tag used in reports
    name = "base"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        l_total: int = 128,
        batch_size: int = 16,
        n_parallel: int | None = None,
        max_parallel: int = MAX_PARALLEL,
        beam: BeamConfig | None = None,
        cost_params: CostParams | None = None,
        seed: int = 0,
        build_info: dict | None = None,
        precision: str = "float32",
        rerank_mult: int = 2,
        pq_m: int | None = None,
        pq_ks: int = 256,
    ):
        if k <= 0 or l_total < k:
            raise ValueError("need 0 < k <= l_total")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}"
            )
        if rerank_mult < 1:
            raise ValueError("rerank_mult must be >= 1")
        #: traversal distance substrate + exact re-rank pool multiplier
        #: (repro.search.precision)
        self.precision = precision
        self.rerank_mult = rerank_mult
        self.pq_m = pq_m
        self.pq_ks = pq_ks
        self._codec = None
        #: graph-construction provenance (e.g. ``{"graph": ...,
        #: "build_seconds": ...}``) merged into ``ServeReport.meta["build"]``
        #: on every serve.
        self.build_info = dict(build_info) if build_info else None
        self.base = np.asarray(base, dtype=np.float32)
        require_finite(self.base, "base vectors")
        self.graph = graph
        self.device = device
        self.metric = metric
        self.k = k
        self.l_total = l_total
        self.batch_size = batch_size
        self.beam = beam
        self.seed = seed
        self.cost_model = CostModel(device, cost_params)
        self.tuning: TuningResult = tune(
            device,
            n_slots=batch_size,
            l_total=l_total,
            k=k,
            max_degree=graph.max_degree,
            dim=int(self.base.shape[1]),
            beam_width=beam.beam_width if beam else 1,
            max_parallel=n_parallel or max_parallel,
        )
        if n_parallel is not None and self.tuning.n_parallel < n_parallel:
            raise ValueError(
                f"requested n_parallel={n_parallel} is infeasible "
                f"(tuner max for this config: {self.tuning.n_parallel})"
            )
        self._medoid = medoid(self.base, metric)

    # ------------------------------------------------------------ searching
    @property
    def n_parallel(self) -> int:
        return self.tuning.n_parallel

    def search_entries(self, queries: np.ndarray, seed: int) -> np.ndarray:
        """``(B, n_parallel, e)`` entry ids: every CTA seeds
        :func:`~repro.search.batched.seeds_per_cta` of its candidate list
        from :func:`~repro.search.batched.query_entries` over every base
        point, keyed by the query's bytes and ``seed`` — so a query's
        answer does not depend on its batch."""
        return query_entries(
            queries, self.n_parallel, seeds_per_cta(self.tuning.per_cta_cand_len),
            np.arange(self.base.shape[0]), seed=seed,
        )

    def traversal_codec(self):
        """The fitted traversal codec of the system's precision (None for
        float32).

        The codec is fitted lazily on the base vectors, once — fitting (SQ
        ranges / PQ codebooks + corpus encode) is a build-time cost, like
        graph construction.
        """
        if self.precision == "float32":
            return None
        if self._codec is None:
            self._codec = make_codec(
                self.precision, self.base, metric=self.metric,
                pq_m=self.pq_m, pq_ks=self.pq_ks, seed=self.seed,
            )
        return self._codec

    def search_all(self, queries: np.ndarray, seed: int | None = None):
        """Search every query; returns padded ids/dists and the batch's
        :class:`~repro.gpusim.trace.TraceBlock` (``len(traces) == nq``).

        The whole query set advances in one lockstep SoA batch (all
        queries × all CTAs) from :meth:`search_entries`; the scalar
        reference functions, fed the same entries query by query, return
        byte-identical results and, through ``TraceBlock.from_traces``, an
        equal block (``tests/oracles.py``).  ``seed`` overrides the
        system's seed for this call
        (:attr:`~repro.core.serving.ServeConfig.seed`).  An empty batch or
        one whose width is not the corpus's raises ``ValueError``.
        """
        queries = query_batch(queries, self.base.shape[1])
        entries = self.search_entries(queries, self.seed if seed is None else seed)
        results = batched_multi_cta_search(
            self.base, self.graph, queries, self.k, self.l_total,
            self.n_parallel, metric=self.metric, beam=self.beam,
            entries=entries, codec=self.traversal_codec(),
            rerank_mult=self.rerank_mult,
        )
        return results.padded_ids, results.padded_dists, results.traces

    # -------------------------------------------------------------- pricing
    def jobs_from_traces(
        self, traces: TraceBlock | list, events: list[QueryEvent]
    ) -> list[QueryJob]:
        """Price traces into engine jobs, one per query event."""
        return price_jobs(self.cost_model, traces, events, self.k)

    def mem_per_block(self) -> int:
        return self.tuning.block_shared_mem_bytes

    # ------------------------------------------------------------- serving
    def make_engine(self, telemetry=None, faults=None,
                    resilience=None):  # pragma: no cover
        """Build the system's batching engine (abstract).

        ``telemetry`` instruments the engine; ``faults`` / ``resilience``
        arm the chaos plane and its defenses (all three are the
        :class:`~repro.core.serving.ServeConfig` knobs).
        """
        raise NotImplementedError

    def _host_meta(self, jobs: list[QueryJob]) -> dict | None:
        """Closed-form host-thread provenance for ``meta["host"]``.

        Base systems have no host-thread model (the static baselines
        dispatch fixed batches); :class:`ALGASSystem` overrides this with
        the §V-B estimate so every serve carries the slot partition and
        the predicted thread saturation point.
        """
        return None

    def _precision_meta(self) -> dict:
        """``meta["precision"]`` of a serve: the substrate, its re-rank
        multiplier and the fitted codec."""
        codec = self.traversal_codec()
        return {
            "precision": self.precision,
            "rerank_mult": None if codec is None else self.rerank_mult,
            "codec": None if codec is None else codec.info(),
        }

    # ---------------------------------------------------------- serve steps
    # ``serve`` is these steps in order; the cluster legs call the same
    # steps on their shard systems (repro.core.cluster).
    def _search_step(self, queries: np.ndarray, cfg: ServeConfig, events):
        """Search and price one serve: ``(ids, dists, traces, jobs, meta)``,
        ``jobs[i]`` priced for ``events[i]`` and ``meta`` the report entries
        this stage owns (``host``, ``precision``)."""
        ids, dists, traces = self.search_all(queries, seed=cfg.seed)
        jobs = self.jobs_from_traces(traces, events)
        meta = {}
        host = self._host_meta(jobs)
        if host is not None:
            meta["host"] = host
        meta["precision"] = self._precision_meta()
        return ids, dists, traces, jobs, meta

    def _schedule_step(self, jobs: list[QueryJob], cfg: ServeConfig,
                       spec) -> ServeReport:
        """Replay priced ``jobs`` through this serve's engine under the
        workload's admission ``spec``."""
        engine = self.make_engine(
            telemetry=cfg.telemetry, faults=cfg.faults,
            resilience=cfg.resilience,
        )
        return _admit(engine, jobs, spec)

    def serve(
        self,
        queries: np.ndarray,
        config: ServeConfig | None = None,
    ) -> SystemReport:
        """Search + schedule a query set (closed loop by default).

        ``config`` is the unified :class:`~repro.core.serving.ServeConfig`;
        its ``workload`` takes the declarative
        :class:`~repro.data.workload.ArrivalProcess` /
        :class:`~repro.data.workload.TrafficSpec` hierarchy or a plain
        ``QueryEvent`` list (docs/load_testing.md).
        """
        cfg = as_serve_config(config, owner=f"{type(self).__name__}.serve")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        evs, spec = resolve_workload(cfg.workload, queries.shape[0])
        ids, dists, traces, jobs, meta = self._search_step(
            queries, cfg, sorted(evs, key=lambda e: e.query_id)
        )
        report = self._schedule_step(jobs, cfg, spec)
        report.meta.update(meta)
        if self.build_info:
            report.meta["build"] = dict(self.build_info)
        return SystemReport(ids=ids, dists=dists, serve=report, traces=traces)


class ALGASSystem(BaseGraphSystem):
    """The full ALGAS stack: dynamic batching on a persistent kernel,
    beam-extend search, CPU TopK merge, GDRCopy state mirrors."""

    name = "algas"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        l_total: int = 128,
        batch_size: int = 16,
        n_parallel: int | None = None,
        max_parallel: int = MAX_PARALLEL,
        beam: BeamConfig | None | bool = True,
        host_threads: int | str = "auto",
        state_mode: str = "gdrcopy",
        merge_on_cpu: bool = True,
        cost_params: CostParams | None = None,
        seed: int = 0,
        build_info: dict | None = None,
        precision: str = "float32",
        rerank_mult: int = 2,
        pq_m: int | None = None,
        pq_ks: int = 256,
    ):
        if beam is True:
            beam = BeamConfig.for_capacity(
                per_cta_capacity(l_total, n_parallel or max_parallel, k))
        elif beam is False:
            beam = None
        super().__init__(
            base, graph, device, metric, k, l_total, batch_size,
            n_parallel, max_parallel, beam, cost_params, seed,
            build_info, precision=precision, rerank_mult=rerank_mult,
            pq_m=pq_m, pq_ks=pq_ks,
        )
        t = self.tuning
        if not t.feasible:
            # The persistent kernel keeps every slot's CTAs resident: a
            # configuration the tuner cannot place would deadlock.
            raise ValueError(
                f"batch_size={batch_size} slots do not fit the persistent "
                f"kernel on {device.name}: n_parallel={t.n_parallel} gives "
                f"{t.total_blocks} resident blocks of "
                f"{t.block_shared_mem_bytes} B (device holds at most "
                f"{device.max_resident_blocks}); shrink batch_size or l_total"
            )
        if host_threads == "auto":
            # §V-B: one host thread struggles above ~16-32 slots; scale the
            # thread pool with the slot count.
            host_threads = -(-batch_size // 16)
        if not isinstance(host_threads, int) or host_threads <= 0:
            raise ValueError("host_threads must be a positive int or 'auto'")
        self.host_threads = host_threads
        self.state_mode = state_mode
        self.merge_on_cpu = merge_on_cpu

    def engine_config(self) -> DynamicBatchConfig:
        """The dynamic-engine config of the system's serves.

        Split from :meth:`make_engine` so the parallel replica fan-out can
        rebuild a byte-identical engine in a worker from picklable parts
        (device + cost model + config) without shipping the corpus.
        """
        return DynamicBatchConfig(
            n_slots=self.batch_size,
            n_parallel=self.n_parallel,
            k=self.k,
            host_threads=self.host_threads,
            state_mode=self.state_mode,
            merge_on_cpu=self.merge_on_cpu,
        )

    def make_engine(self, telemetry=None, faults=None,
                    resilience=None) -> DynamicBatchEngine:
        return DynamicBatchEngine(self.device, self.cost_model,
                                  self.engine_config(),
                                  telemetry=telemetry, faults=faults,
                                  resilience=resilience)

    def _host_meta(self, jobs: list[QueryJob]) -> dict | None:
        if not jobs:
            return None
        mean_gpu = float(np.mean([j.gpu_time_us for j in jobs]))
        return host_meta(
            self.device, self.cost_model, self.batch_size, self.n_parallel, self.k,
            int(self.base.shape[1]), mean_gpu, self.host_threads,
        )

"""Shared serving vocabulary: jobs, per-query records, configs, reports.

Both batching engines consume :class:`QueryJob` lists (priced traces — the
search itself has already run) and produce a :class:`ServeReport` with
identical semantics, so every Fig. 10–15 comparison is apples-to-apples.

:class:`ServeConfig` is the unified ``serve()`` argument accepted by every
entry point (:class:`~repro.core.pipeline.ALGASSystem`, the baselines,
:class:`~repro.core.cluster.ReplicatedServer` /
:class:`~repro.core.cluster.ShardedServer`).  Its ``workload`` field takes
the declarative :class:`~repro.data.workload.ArrivalProcess` /
:class:`~repro.data.workload.TrafficSpec` hierarchy (docs/load_testing.md)
or a plain ``list[QueryEvent]`` via a thin adapter.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..data.workload import ArrivalProcess, QueryEvent, TrafficSpec
from ..gpusim.pcie import PCIeStats
from ..gpusim.trace import TraceBlock
from ..resilience.policy import merge_resilience_meta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultPlan, ResiliencePolicy, ResilienceStats
    from ..telemetry import Telemetry

__all__ = [
    "QueryJob",
    "QueryRecord",
    "ServeConfig",
    "ServeReport",
    "as_serve_config",
    "merge_reports",
    "price_jobs",
]


@dataclass(frozen=True)
class QueryJob:
    """One query ready to be scheduled: arrival time + priced CTA work."""

    query_id: int
    arrival_us: float
    #: GPU busy time of each CTA serving this query, microseconds.
    cta_durations_us: tuple[float, ...]
    dim: int
    k: int
    #: extra host-side work after collection (µs) — the hybrid tier's CPU
    #: refinement walk lands here; 0.0 for pure-GPU serves.
    host_us: float = 0.0
    #: per-CTA result-push width override (entries shipped over PCIe at
    #: FINISH).  None → the engine's ``k`` as a posted MMIO write (the
    #: pre-hybrid behaviour); set → a DMA of this many id+dist entries
    #: whose *completion* gates collection, so PCIe stalls delay the
    #: downstream refinement hop (docs/performance.md, hybrid tier).
    result_entries: int | None = None

    def __post_init__(self) -> None:
        # Comparisons with NaN are false, so ``0 <= x < inf`` refuses it
        # too: a non-finite time would hang the engine's event loop.
        if not self.cta_durations_us:
            raise ValueError("a job needs at least one CTA duration")
        if not all(0.0 <= d < math.inf for d in self.cta_durations_us):
            raise ValueError("cta_durations_us must be finite and non-negative")
        if not math.isfinite(self.arrival_us):
            raise ValueError(f"arrival_us must be finite, got {self.arrival_us}")
        if not 0.0 <= self.host_us < math.inf:
            raise ValueError(f"host_us must be finite and non-negative, got {self.host_us}")
        if self.result_entries is not None and self.result_entries <= 0:
            raise ValueError("result_entries must be positive")

    def rescheduled(self, query_id: int, arrival_us: float) -> "QueryJob":
        """This job's priced work under another id and arrival time.

        Equal to ``dataclasses.replace(self, query_id=..., arrival_us=...)``
        without its per-call field introspection; the fields
        ``__post_init__`` checks are carried over, so only the new arrival
        is checked.
        """
        if not math.isfinite(arrival_us):
            raise ValueError(f"arrival_us must be finite, got {arrival_us}")
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, query_id=query_id, arrival_us=arrival_us)
        return clone

    @property
    def n_ctas(self) -> int:
        return len(self.cta_durations_us)

    @property
    def gpu_time_us(self) -> float:
        """Slot-occupancy time: CTAs run concurrently, so the max."""
        return max(self.cta_durations_us)


def price_jobs(
    cost_model,
    traces,
    events: list[QueryEvent],
    k: int,
    *,
    host_us=None,
    result_entries: int | None = None,
) -> list[QueryJob]:
    """Price search traces into engine jobs, one per query event.

    The one trace → :class:`QueryJob` step every serving system shares:
    ``traces`` (a :class:`~repro.gpusim.trace.TraceBlock`, or a trace list
    converted through ``TraceBlock.from_traces``) is priced in one
    :meth:`~repro.gpusim.costmodel.CostModel.cta_durations_us` call and
    query ``i``'s CTA durations go to ``events[i]``.  ``host_us`` (indexed
    by ``query_id``) and ``result_entries`` are the hybrid tier's refine
    stage.
    """
    block = TraceBlock.from_traces(traces)
    if len(block) != len(events):
        raise ValueError(
            f"one trace per event required: got {len(block)} traces "
            f"for {len(events)} events"
        )
    durations = cost_model.cta_durations_us(block).reshape(len(block), block.n_ctas).tolist()
    jobs = []
    for ev, durs in zip(events, durations):
        jobs.append(
            QueryJob(
                query_id=ev.query_id,
                arrival_us=ev.arrival_us,
                cta_durations_us=tuple(durs),
                dim=block.dim,
                k=k,
                host_us=0.0 if host_us is None else host_us[ev.query_id],
                result_entries=result_entries,
            )
        )
    return jobs


@dataclass
class QueryRecord:
    """Timeline of one served query (all times simulation microseconds)."""

    query_id: int
    arrival_us: float
    dispatch_us: float = 0.0  # host handed the query to a slot / batch
    gpu_start_us: float = 0.0
    gpu_end_us: float = 0.0  # this query's own CTAs all finished
    detected_us: float = 0.0  # host observed completion
    complete_us: float = 0.0  # results merged & filtered, returned
    # ---- resilience annotations (docs/robustness.md); all default-off so
    # healthy serves are bit-identical to the pre-resilience engine.
    retries: int = 0  # watchdog re-dispatches this query survived
    partial: bool = False  # answered from a shard quorum subset
    degraded: bool = False  # dispatched under overload degradation

    @property
    def service_latency_us(self) -> float:
        """Dispatch → completion (the paper's per-query latency)."""
        return self.complete_us - self.dispatch_us

    @property
    def e2e_latency_us(self) -> float:
        """Arrival → completion (includes batch-accumulation/queue wait)."""
        return self.complete_us - self.arrival_us

    @property
    def bubble_us(self) -> float:
        """Time between this query's own GPU completion and its return —
        in static batching, waiting for the batch's slowest query."""
        return max(0.0, self.complete_us - self.gpu_end_us)


@dataclass(frozen=True)
class ServeConfig:
    """Unified per-run inputs accepted by every ``serve()`` entry point.

    What is served (slots, precision, re-rank pool, tier) is set once, on
    the system's constructor.  ``serve(queries)`` and
    ``serve(queries, ServeConfig())`` are identical.

    * ``workload`` — when queries arrive: an
      :class:`~repro.data.workload.ArrivalProcess`, a
      :class:`~repro.data.workload.TrafficSpec` (process + admission
      control), or a materialized ``list[QueryEvent]``
      (None → closed loop over the queries);
    * ``seed`` — overrides the entry-point RNG seed;
    * ``telemetry`` — a :class:`~repro.telemetry.Telemetry` to instrument
      the run (None → the no-op default; the hot path is unaffected);
    * ``faults`` — a :class:`~repro.resilience.FaultPlan` to inject
      (None → healthy run);
    * ``resilience`` — a :class:`~repro.resilience.ResiliencePolicy`
      arming the defenses (None → defaults when faults are injected,
      otherwise fully off);
    * ``parallelism`` — host worker count for the cluster servers'
      shard/replica fan-out (:mod:`repro.parallel`); ``None``/0/1 run
      sequentially (byte-identical to the pre-parallel path), ``N > 1``
      fans the per-shard serves across ``N`` worker processes over
      zero-copy shared corpora with deterministic shard-id-ordered fan-in
      — reports are byte-identical at equal seeds regardless of the worker
      count, so this knob never appears in ``ServeReport.meta``.
    """

    workload: "TrafficSpec | ArrivalProcess | list[QueryEvent] | None" = None
    seed: int | None = None
    telemetry: "Telemetry | None" = None
    faults: "FaultPlan | None" = None
    resilience: "ResiliencePolicy | None" = None
    parallelism: int | None = None

    def __post_init__(self) -> None:
        from ..resilience import FaultPlan, ResiliencePolicy

        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise TypeError(
                f"resilience must be a ResiliencePolicy, "
                f"got {type(self.resilience).__name__}"
            )
        if self.parallelism is not None and self.parallelism < 0:
            raise ValueError("parallelism must be non-negative")
        if self.workload is not None and not isinstance(
            self.workload, (TrafficSpec, ArrivalProcess)
        ):
            if not isinstance(self.workload, (list, tuple)):
                raise TypeError(
                    f"workload must be a TrafficSpec, ArrivalProcess, or "
                    f"list[QueryEvent]; got {type(self.workload).__name__}"
                )
            for ev in self.workload:
                if not isinstance(ev, QueryEvent):
                    raise TypeError(
                        f"workload must contain QueryEvent, got {type(ev).__name__}"
                    )


def as_serve_config(config=None, owner: str = "serve") -> ServeConfig:
    """Coerce the ``serve()`` config argument into one :class:`ServeConfig`.

    Accepts a ``ServeConfig``, None (all defaults), or — as a thin
    adapter — a bare ``list[QueryEvent]`` / :class:`ArrivalProcess` /
    :class:`TrafficSpec`, which becomes ``ServeConfig(workload=...)``.
    """
    if config is None:
        return ServeConfig()
    if isinstance(config, ServeConfig):
        return config
    if isinstance(config, (TrafficSpec, ArrivalProcess)):
        return ServeConfig(workload=config)
    if isinstance(config, (list, tuple)) and all(
        isinstance(e, QueryEvent) for e in config
    ):
        return ServeConfig(workload=list(config))
    raise TypeError(
        f"{owner}() expected a ServeConfig (or a workload: TrafficSpec, "
        f"ArrivalProcess, or QueryEvent list), got {type(config).__name__}"
    )


def _json_safe(value):
    """Lossless-where-possible JSON conversion.

    Dataclasses (codec/config provenance objects) become plain dicts,
    numpy scalars/arrays become Python numbers/lists, containers recurse —
    so nested structures like ``meta["precision"]`` and ``meta["build"]``
    survive ``to_json``/``from_json`` as data.  Only genuinely opaque
    objects degrade to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _json_safe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass
class ServeReport:
    """Outcome of serving a job list under some batching discipline."""

    records: list[QueryRecord]
    makespan_us: float
    gpu_cta_busy_us: float  # total CTA busy time
    n_cta_slots: int  # concurrently reserved CTA contexts
    pcie: PCIeStats | None = None
    host_busy_us: float = 0.0
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------- metrics
    def _lat(self, kind: str) -> np.ndarray:
        if kind == "service":
            return np.array([r.service_latency_us for r in self.records])
        if kind == "e2e":
            return np.array([r.e2e_latency_us for r in self.records])
        raise ValueError("kind must be 'service' or 'e2e'")

    def mean_latency_us(self, kind: str = "service") -> float:
        lat = self._lat(kind)
        return float(lat.mean()) if lat.size else 0.0

    def percentile_latency_us(self, q: float, kind: str = "service") -> float:
        lat = self._lat(kind)
        return float(np.percentile(lat, q)) if lat.size else 0.0

    def sorted_latencies_us(self, kind: str = "service") -> np.ndarray:
        """Ascending per-query latencies (the Fig. 13 curve)."""
        return np.sort(self._lat(kind))

    @property
    def throughput_qps(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return len(self.records) / (self.makespan_us * 1e-6)

    @property
    def gpu_utilization(self) -> float:
        """Busy fraction of the reserved CTA contexts over the makespan."""
        denom = self.n_cta_slots * self.makespan_us
        return self.gpu_cta_busy_us / denom if denom > 0 else 0.0

    @property
    def mean_bubble_us(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.bubble_us for r in self.records]))

    def summary(self) -> dict:
        """Flat dict of headline metrics (used by the bench reports)."""
        return {
            "n_queries": len(self.records),
            "makespan_us": self.makespan_us,
            "throughput_qps": self.throughput_qps,
            "mean_latency_us": self.mean_latency_us(),
            "p50_latency_us": self.percentile_latency_us(50),
            "p99_latency_us": self.percentile_latency_us(99),
            "mean_e2e_latency_us": self.mean_latency_us("e2e"),
            "gpu_utilization": self.gpu_utilization,
            "mean_bubble_us": self.mean_bubble_us,
        }

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-ready dict: full per-query records plus headline metrics.

        ``meta`` is serialized best-effort (dataclass configs become plain
        dicts); a round-tripped report therefore compares equal on records
        and derived metrics, while ``meta`` holds data rather than objects.
        """
        return {
            "records": [dataclasses.asdict(r) for r in self.records],
            "makespan_us": self.makespan_us,
            "gpu_cta_busy_us": self.gpu_cta_busy_us,
            "n_cta_slots": self.n_cta_slots,
            "host_busy_us": self.host_busy_us,
            "pcie": None if self.pcie is None else _json_safe(self.pcie),
            "meta": _json_safe(self.meta),
            "summary": self.summary(),  # convenience; ignored by from_dict
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServeReport":
        pcie = data.get("pcie")
        # meta was serialized through _json_safe, so nested codec/config
        # provenance (meta["precision"], meta["build"]) arrives as plain
        # dicts; re-normalizing keeps a loaded report's meta identical to
        # to_dict() of the original (round-trip stability).
        meta = _json_safe(data.get("meta") or {})
        return cls(
            records=[QueryRecord(**r) for r in data["records"]],
            makespan_us=data["makespan_us"],
            gpu_cta_busy_us=data["gpu_cta_busy_us"],
            n_cta_slots=data["n_cta_slots"],
            pcie=None if pcie is None else PCIeStats(**pcie),
            host_busy_us=data.get("host_busy_us", 0.0),
            meta=meta,
        )

    def to_json(self, path: str | os.PathLike | None = None, indent: int = 2) -> str:
        """Serialize to a JSON string, optionally also writing ``path``."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, data: str | bytes) -> "ServeReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(data))


def merge_reports(
    parts: list[ServeReport],
    records: list[QueryRecord],
    n_cta_slots: int,
    meta: dict,
    ledger: "ResilienceStats | None" = None,
    host_busy_us: float = 0.0,
    makespan_us: float = 0.0,
) -> ServeReport:
    """The one fan-in: fold part reports into the report over ``records``.

    A stream stitches its epochs, ``ReplicatedServer`` its replicas (and
    hedge passes), ``ShardedServer`` its shards; each hands over the
    records it answered with, its slot count and its mode ``meta``.  The
    census is one rule for all three:

    * a query with a record is in no id list;
    * ``dropped_ids`` / ``shed_ids`` are the parts' drops / sheds minus
      answered queries, so ``shed_ids ⊆ dropped_ids`` as on one engine;
      ``failed_ids`` are the failures in the parts' ledgers and the
      caller's ``ledger`` (a cluster defense's own), minus answered ones;
    * ``dropped`` is always present; ``shed`` / ``shed_ids`` /
      ``max_queue_depth`` only if some part armed queue-depth admission;
      ``resilience`` / ``failed`` / ``failed_ids`` only if some part or
      the caller kept a ledger.

    Busy times are summed over the parts (query work only: a stream's
    update waves go under ``meta["update"]``, never into the latency
    stream), plus the caller's own ``host_busy_us`` (the shard merges).
    The makespan is the latest record completion, or ``makespan_us`` if
    that is later (a stream's last barrier).
    """
    answered = {r.query_id for r in records}

    def unanswered(key: str) -> list[int]:
        return sorted({i for p in parts for i in p.meta.get(key, ())} - answered)

    dropped = unanswered("dropped_ids")
    census: dict = {"dropped": len(dropped), "dropped_ids": dropped}
    depth = next((p.meta["max_queue_depth"] for p in parts
                  if "max_queue_depth" in p.meta), None)
    if depth is not None:
        shed = unanswered("shed_ids")
        census.update(max_queue_depth=depth, shed=len(shed), shed_ids=shed)
    res = merge_resilience_meta(
        [p.meta.get("resilience") for p in parts]
        + [None if ledger is None else ledger.to_meta()]
    )
    if res is not None:
        # A query one part gave up on but another answered (a hedge win,
        # a quorum answer) is answered, not failed.
        res["failed_ids"] = sorted(set(res["failed_ids"]) - answered)
        census.update(resilience=res, failed=len(res["failed_ids"]),
                      failed_ids=res["failed_ids"])
    return ServeReport(
        records=records,
        makespan_us=max(max((r.complete_us for r in records), default=0.0),
                        makespan_us),
        gpu_cta_busy_us=sum(p.gpu_cta_busy_us for p in parts),
        n_cta_slots=n_cta_slots,
        pcie=None,
        host_busy_us=sum(p.host_busy_us for p in parts) + host_busy_us,
        meta={**census, **meta},
    )

"""Serve-while-update: interleave a query stream with an update stream.

The robustness question this answers (docs/robustness.md): *what happens
to recall and latency when the corpus churns under live traffic?*  The
runner drives a :class:`~repro.graphs.dynamic.DynamicGraph` with two
clocks-worth of work on one simulated timeline:

* a **query stream** — any :class:`~repro.data.workload.ArrivalProcess` /
  :class:`~repro.data.workload.TrafficSpec` (admission control included),
  exactly as the static serving path accepts;
* an **update stream** — a seeded :class:`~repro.streaming.updates.UpdateStream`
  of insert/delete waves and burst storms.

Execution is epoch-based on the shared simulated clock: queries arriving
between two waves are lockstep-searched on the *live* graph (tombstones
masked at expansion) — in the same run as the next wave's insertion
searches where the two can share one (see
:meth:`~repro.graphs.dynamic.DynamicGraph.search_batch`'s
``pending_inserts``) — priced with the cost model, and served through a
dynamic-batch engine; each wave then applies its updates as one vectorized
batch whose (simulated) service time holds a serve barrier — queries that
arrive while a wave is applying wait for it, and that wait lands in their
end-to-end latency.  Compaction runs automatically when the tombstone
fraction crosses a threshold, and the
:class:`~repro.resilience.faults.UpdateFault` chaos kinds plug in here:
``storm`` merges into the wave schedule, ``compaction_stall`` stretches
the compaction barrier, ``codebook_drift`` shifts insert vectors until the
stale-codebook detector re-trains.

Degradation is graded against a **frozen-graph oracle**: the same query
vectors searched on the t=0 graph against the t=0 exact ground truth.
The churned run's recall (each epoch graded against *that epoch's* exact
ground truth over the live set) must stay within
:attr:`DegradationSLO.max_recall_drop` of the oracle, answer at least
:attr:`DegradationSLO.min_answered_frac` of the traffic, and never return
a tombstoned vertex or a duplicate id — the serve-while-update SLOs the
chaos smoke gate asserts (``scripts/test.sh --chaos``).

Accounting (the BENCH_stream rule): update-wave work never enters the
query latency stream.  Epoch reports are stitched with
:func:`~repro.core.serving.merge_serve_reports`, which keeps wave/compaction
time under ``meta["update"]`` — percentiles read off the merged report
describe queries only.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine, _admit
from ..core.serving import ServeReport, merge_serve_reports, price_jobs
from ..data.groundtruth import exact_knn, recall_per_query
from ..data.metrics import normalize
from ..data.workload import resolve_workload
from ..gpusim.costmodel import CostModel, CostParams
from ..gpusim.device import RTX_A6000, DeviceProperties
from ..graphs.dynamic import DynamicGraph
from ..resilience.faults import FaultPlan
from .updates import UpdateStorm, UpdateStream

__all__ = ["DegradationSLO", "StreamReport", "serve_while_update"]

#: Simulated per-point service cost of an insert wave (µs).  Inserts pay a
#: prefix search + link selection; deletes are pure tombstoning; compaction
#: pays per pending tombstone patched.  These price the *barrier* an update
#: wave holds against serving — the update analogue of the CTA cost model's
#: per-op constants.
INSERT_US_PER_POINT = 12.0
DELETE_US_PER_POINT = 1.5
COMPACT_US_PER_TOMBSTONE = 6.0

#: Auto-compaction trigger: compact when pending tombstones exceed this
#: fraction of the live set (recall sags with tombstone density — see
#: docs/robustness.md for the measured sag/threshold trade).
DEFAULT_COMPACT_THRESHOLD = 0.05


@dataclass(frozen=True)
class DegradationSLO:
    """Pass/fail floors for a serve-while-update run.

    ``max_recall_drop`` bounds churned recall against the frozen-graph
    oracle; ``p99_ceiling_us`` (when set) bounds merged e2e p99 latency;
    the integrity criteria (no tombstoned answer, no duplicate ids in a
    top-k row, no lost queries) are absolute — they hold across every
    compaction boundary or the run fails.
    """

    min_answered_frac: float = 0.99
    max_recall_drop: float = 0.02
    p99_ceiling_us: float | None = None

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so each check refuses it too: a NaN
        # limit would fail every verdict.
        if not 0.0 <= self.min_answered_frac <= 1.0:
            raise ValueError("min_answered_frac must be in [0, 1]")
        if not 0.0 <= self.max_recall_drop < math.inf:
            raise ValueError("max_recall_drop must be finite and >= 0")
        if self.p99_ceiling_us is not None and not (
            0.0 < self.p99_ceiling_us < math.inf
        ):
            raise ValueError("p99_ceiling_us must be finite and positive")


@dataclass
class StreamReport:
    """Outcome of one serve-while-update run, graded against its SLO."""

    serve: ServeReport
    slo: DegradationSLO
    oracle_recall: float
    stream_recall: float
    n_events: int
    answered: int
    dropped: int
    shed: int
    lost: int
    tombstoned_answers: int
    duplicate_rows: int
    waves: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------- grading
    @property
    def recall_drop(self) -> float:
        return self.oracle_recall - self.stream_recall

    @property
    def answered_frac(self) -> float:
        return self.answered / self.n_events if self.n_events else 1.0

    @property
    def p99_e2e_us(self) -> float:
        return self.serve.percentile_latency_us(99, "e2e")

    def verdict(self) -> dict:
        """Per-criterion SLO verdict (the table docs/robustness.md shows)."""
        checks = {
            "answered": {
                "value": self.answered_frac,
                "limit": self.slo.min_answered_frac,
                "ok": self.answered_frac >= self.slo.min_answered_frac,
            },
            "recall_drop": {
                "value": self.recall_drop,
                "limit": self.slo.max_recall_drop,
                "ok": self.recall_drop <= self.slo.max_recall_drop,
            },
            "tombstoned_answers": {
                "value": self.tombstoned_answers,
                "limit": 0,
                "ok": self.tombstoned_answers == 0,
            },
            "duplicate_rows": {
                "value": self.duplicate_rows,
                "limit": 0,
                "ok": self.duplicate_rows == 0,
            },
            "lost": {"value": self.lost, "limit": 0, "ok": self.lost == 0},
        }
        if self.slo.p99_ceiling_us is not None:
            checks["p99_e2e_us"] = {
                "value": self.p99_e2e_us,
                "limit": self.slo.p99_ceiling_us,
                "ok": self.p99_e2e_us <= self.slo.p99_ceiling_us,
            }
        return checks

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.verdict().values())

    def summary(self) -> str:
        v = self.verdict()
        lines = [
            f"events={self.n_events} answered={self.answered} "
            f"dropped={self.dropped} shed={self.shed} lost={self.lost}",
            f"waves={len(self.waves)} "
            f"(inserts={sum(w['n_inserts'] for w in self.waves)}, "
            f"deletes={sum(w['n_deletes'] for w in self.waves)}, "
            f"compactions={sum(1 for w in self.waves if w['compacted'])})",
            f"recall: oracle={self.oracle_recall:.4f} "
            f"stream={self.stream_recall:.4f} drop={self.recall_drop:+.4f}",
            f"p99 e2e       = {self.p99_e2e_us:.1f} us",
        ]
        for name, c in v.items():
            mark = "ok " if c["ok"] else "FAIL"
            lines.append(f"  [{mark}] {name}: {c['value']:.4f} "
                         f"(limit {c['limit']})")
        lines.append(f"verdict       = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "serve": self.serve.to_dict(),
            "slo": dataclasses.asdict(self.slo),
            "oracle_recall": self.oracle_recall,
            "stream_recall": self.stream_recall,
            "recall_drop": self.recall_drop,
            "n_events": self.n_events,
            "answered": self.answered,
            "answered_frac": self.answered_frac,
            "dropped": self.dropped,
            "shed": self.shed,
            "lost": self.lost,
            "tombstoned_answers": self.tombstoned_answers,
            "duplicate_rows": self.duplicate_rows,
            "p99_e2e_us": self.p99_e2e_us,
            "waves": self.waves,
            "epochs": self.epochs,
            "verdict": self.verdict(),
            "passed": self.passed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"


def _epoch_recall(
    dyn: DynamicGraph,
    qvecs: np.ndarray,
    ids: np.ndarray,
    k: int,
    alive: np.ndarray,
) -> np.ndarray:
    """Per-query recall against *this instant's* exact live ground truth
    (``alive``: the live vertex ids, ascending).

    The live rows are gathered (a GEMM column's bits can depend on its
    position among the columns, so scoring every staged row and selecting
    the live columns does not reproduce them), but not re-normed: the
    graph keeps every row's squared norm."""
    gt_k = min(k, int(alive.size))
    if gt_k == 0:
        return np.zeros(qvecs.shape[0])
    gt_idx, _ = exact_knn(qvecs, dyn._pts[alive], gt_k, metric=dyn.metric,
                          point_norms=dyn._sqnorms[alive])
    return recall_per_query(ids[:, :gt_k], alive[gt_idx])


def serve_while_update(
    dyn: DynamicGraph,
    queries: np.ndarray,
    stream: UpdateStream,
    *,
    workload=None,
    n_queries: int | None = None,
    k: int = 16,
    l: int | None = None,
    slots: int = 8,
    faults: FaultPlan | None = None,
    slo: DegradationSLO | None = None,
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    device: DeviceProperties = RTX_A6000,
    cost_params: CostParams | None = None,
    telemetry=None,
) -> StreamReport:
    """Serve a query stream while ``stream``'s update waves churn ``dyn``.

    ``queries`` is the query-vector pool; event ``i`` of the workload uses
    row ``i mod len(queries)`` (the load harness convention).  ``workload``
    is anything :func:`~repro.data.workload.resolve_workload` accepts;
    ``n_queries`` defaults to the pool size.  Insert waves draw seeded
    Gaussian vectors matched to the initial corpus's mean/spread, so
    steady churn is in-distribution and codec re-trains only fire under
    injected drift; under cosine every insert vector is normalized after
    any drift shift.  Reads traverse at the graph's own ``precision`` /
    ``rerank_mult`` (:class:`~repro.graphs.dynamic.DynamicGraph`'s
    constructor).
    ``faults`` consumes the plan's update kinds: ``storm`` merges into the
    wave schedule, ``compaction_stall`` stretches the compaction barrier by
    ``factor``, ``codebook_drift`` shifts insert vectors arriving after
    ``at_us`` by ``magnitude`` per-dimension spreads.  The plan's
    slot/PCIe faults are also armed on every epoch engine.
    """
    if not isinstance(stream, UpdateStream):
        raise TypeError(f"stream must be an UpdateStream, got {type(stream).__name__}")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if queries.shape[0] == 0:
        raise ValueError("need at least one query vector")
    # A NaN fails every comparison, so this refuses it too: a NaN
    # threshold would never compact.
    if not 0.0 <= compact_threshold < math.inf:
        raise ValueError("compact_threshold must be finite and non-negative")
    slo = slo or DegradationSLO()
    n_events = queries.shape[0] if n_queries is None else n_queries
    events, spec = resolve_workload(workload, n_events)
    events = sorted(events, key=lambda e: e.arrival_us)
    qvec_of = lambda ev: queries[ev.query_id % queries.shape[0]]  # noqa: E731

    storm = faults.update_fault("storm") if faults is not None else None
    stall = faults.update_fault("compaction_stall") if faults is not None else None
    drift = faults.update_fault("codebook_drift") if faults is not None else None
    if storm is not None:
        stream = stream.with_storm(
            UpdateStorm(storm.at_us, storm.n_inserts, storm.n_deletes)
        )

    # One generator drives every stochastic choice downstream of the stream
    # spec (wave sizes are drawn inside stream.waves from the same seed), so
    # the (stream, faults) pair fully determines the run.
    rng = np.random.default_rng(stream.seed)
    alive0 = dyn.alive_ids()
    base0 = dyn._pts[alive0]
    mean0 = base0.mean(axis=0)
    std0 = base0.std(axis=0) + 1e-6

    def draw_inserts(n: int, at_us: float) -> np.ndarray:
        pts = rng.normal(mean0, std0, size=(n, base0.shape[1])).astype(np.float32)
        if drift is not None and at_us >= drift.at_us:
            pts = pts + drift.magnitude * std0
        if dyn.metric == "cosine":
            # Every cosine kernel computes 1 - dot over unit rows; a draw
            # (or a drift shift) is not one, and the graph refuses it.
            pts = normalize(pts, copy=False)
        return pts

    cm = CostModel(device, cost_params)
    cfg = DynamicBatchConfig(n_slots=slots, n_parallel=1, k=k)
    compactions0 = dyn.compactions
    retrains0 = dyn.codec_retrains

    # ------------------------------------------------- frozen-graph oracle
    all_qvecs = (
        np.stack([qvec_of(ev) for ev in events])
        if events
        else np.empty((0, queries.shape[1]), np.float32)
    )
    if events:
        oracle_ids, _, _ = dyn.search_batch(all_qvecs, k, l=l)
        oracle_recall = float(
            _epoch_recall(dyn, all_qvecs, oracle_ids, k, alive0).mean()
        )
    else:
        oracle_recall = 1.0

    horizon = (max(ev.arrival_us for ev in events) + 1.0) if events else 0.0
    waves = stream.waves(horizon)

    # ------------------------------------------------------- epoch machine
    parts: list[ServeReport] = []
    wave_log: list[dict] = []
    epoch_log: list[dict] = []
    recalls: list[np.ndarray] = []
    true_arrival = {ev.query_id: ev.arrival_us for ev in events}
    tombstoned = 0
    dup_rows = 0
    lost_ids: list[int] = []
    update_busy_us = 0.0
    barrier = 0.0
    ev_pos = 0

    def serve_epoch(epoch_events, start_us: float, inserts) -> None:
        """Search, grade and schedule one epoch's reads; ``inserts`` (the
        next wave's points, or None) ride along in the same search."""
        nonlocal tombstoned, dup_rows
        if not epoch_events:
            return
        qv = np.stack([qvec_of(ev) for ev in epoch_events])
        if dyn.n_alive == 0:
            lost_ids.extend(ev.query_id for ev in epoch_events)
            return
        ids, _, traces = dyn.search_batch(
            qv, k, l=l, record_trace=True, pending_inserts=inserts,
        )
        # Compaction-boundary invariants, checked on every answer set:
        # a tombstone must never be returned, a row must never repeat an id.
        alive = dyn.alive_ids()
        alive_now = np.zeros(dyn.n_total, dtype=bool)
        alive_now[alive] = True
        valid = ids >= 0
        tombstoned += int((valid & ~alive_now[np.maximum(ids, 0)]).sum())
        # Padding (-1) sorts first and is never a duplicate of a real id.
        srt = np.sort(ids, axis=1)
        repeat = (srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)
        dup_rows += int(repeat.any(axis=1).sum())
        recalls.append(_epoch_recall(dyn, qv, ids, k, alive))
        # A wave in flight holds the serve barrier: arrivals during it
        # queue until it finishes.
        jobs = price_jobs(cm, traces, epoch_events, k, arrival_floor_us=start_us)
        engine = DynamicBatchEngine(
            device, cm, cfg, telemetry=telemetry, faults=faults
        )
        rep = _admit(engine, jobs, spec)
        for rec in rep.records:
            # Restore the true arrival so e2e latency includes the wait
            # behind the barrier (service latency is untouched).
            rec.arrival_us = true_arrival[rec.query_id]
        parts.append(rep)
        epoch_log.append({
            "start_us": start_us,
            "n_queries": len(epoch_events),
            "recall": float(recalls[-1].mean()),
            "graph_version": dyn.version,
            "n_alive": dyn.n_alive,
            "n_tombstones": dyn.n_tombstones,
        })

    for wave in waves:
        batch = []
        while ev_pos < len(events) and events[ev_pos].arrival_us < wave.at_us:
            batch.append(events[ev_pos])
            ev_pos += 1
        # The wave's points are drawn before its epoch is served so the
        # epoch's search can run their insertion searches too: serving
        # leaves `barrier` and `rng` alone, so the drift start and the
        # draw order (insert vectors, then delete victims) are unchanged.
        start = max(wave.at_us, barrier)
        new_pts = draw_inserts(wave.n_inserts, start) if wave.n_inserts else None
        serve_epoch(batch, barrier, new_pts)

        dur = 0.0
        if new_pts is not None:
            dyn.insert_batch(new_pts)
            dur += wave.n_inserts * INSERT_US_PER_POINT
        n_del = 0
        if wave.n_deletes:
            alive = dyn.alive_ids()
            n_del = min(wave.n_deletes, max(int(alive.size) - 1, 0))
            if n_del:
                victims = rng.choice(alive, size=n_del, replace=False)
                dyn.delete_batch(victims)
                dur += n_del * DELETE_US_PER_POINT
        compacted = None
        if dyn.tombstone_fraction > compact_threshold:
            pending = dyn.n_tombstones
            compacted = dyn.compact()
            stall_factor = stall.factor if stall is not None else 1.0
            dur += pending * COMPACT_US_PER_TOMBSTONE * stall_factor
        barrier = start + dur
        update_busy_us += dur
        wave_log.append({
            "at_us": wave.at_us,
            "start_us": start,
            "duration_us": dur,
            "n_inserts": wave.n_inserts,
            "n_deletes": n_del,
            "storm": wave.storm,
            "compacted": compacted,
            "graph_version": dyn.version,
            "n_alive": dyn.n_alive,
            "tombstone_fraction": dyn.tombstone_fraction,
        })

    serve_epoch(events[ev_pos:], barrier, None)

    # ----------------------------------------------------------- stitching
    update_meta = {
        "stream": stream.to_dict(),
        "n_waves": len(wave_log),
        "n_inserts": sum(w["n_inserts"] for w in wave_log),
        "n_deletes": sum(w["n_deletes"] for w in wave_log),
        "update_busy_us": update_busy_us,
        "compactions": dyn.compactions - compactions0,
        "codec_retrains": dyn.codec_retrains - retrains0,
        "graph_version": dyn.version,
        "waves": wave_log,
    }
    if parts:
        serve = merge_serve_reports(
            parts, meta={"n_epochs": len(parts)}, update=update_meta
        )
        serve.makespan_us = max(serve.makespan_us, barrier)
    else:
        serve = ServeReport(
            records=[], makespan_us=barrier, gpu_cta_busy_us=0.0,
            n_cta_slots=slots,
            meta={"dropped": 0, "dropped_ids": [], "n_epochs": 0,
                  "update": update_meta},
        )

    answered_ids = {r.query_id for r in serve.records}
    excused = set(serve.meta.get("dropped_ids", []))
    excused |= set(serve.meta.get("shed_ids", []))
    lost = sorted(
        set(lost_ids)
        | {
            ev.query_id
            for ev in events
            if ev.query_id not in answered_ids and ev.query_id not in excused
        }
    )
    stream_recall = (
        float(np.concatenate(recalls).mean()) if recalls else oracle_recall
    )
    return StreamReport(
        serve=serve,
        slo=slo,
        oracle_recall=oracle_recall,
        stream_recall=stream_recall,
        n_events=len(events),
        answered=len(serve.records),
        dropped=int(serve.meta.get("dropped", 0)),
        shed=int(serve.meta.get("shed", 0)),
        lost=len(lost),
        tombstoned_answers=tombstoned,
        duplicate_rows=dup_rows,
        waves=wave_log,
        epochs=epoch_log,
    )

"""Offered-load sweeps: latency-vs-QPS curves and the sustainable frontier.

The load experiment the paper cannot show (it serves fixed batches): hold
the system shape constant, sweep the *offered* arrival rate, and read off

* p50/p95/p99 end-to-end latency at each offered QPS (the hockey-stick
  curve — flat while capacity holds, divergent past saturation);
* the **max sustainable QPS**: the highest offered rate at which the
  fleet still meets a p99 budget while answering (almost) everything.

Search cost is decoupled from traffic: a small set of *searched* query
templates (real kernels, priced traces) is replayed over an arbitrarily
long arrival stream with :func:`replay_jobs`, so a 100k-point corpus and
50k arrivals cost one search pass plus a fast event simulation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.serving import QueryJob, ServeReport, _json_safe
from ..data.workload import ArrivalProcess, QueryEvent
from ..parallel import make_pool
from .autoscaler import AutoscalerPolicy
from .driver import FleetConfig, FleetDriver

__all__ = [
    "replay_jobs",
    "LoadPoint",
    "run_load_point",
    "sweep_load",
    "max_sustainable_qps",
    "write_bench_load",
]


def replay_jobs(
    templates: list[QueryJob], events: list[QueryEvent]
) -> list[QueryJob]:
    """Clone searched job templates onto an arrival stream.

    Event ``i`` reuses template ``i mod len(templates)`` (its priced CTA
    durations) with the event's id and arrival time — the standard
    trace-replay trick: search cost per *distinct* query, traffic volume
    per *arrival*.
    """
    if not templates:
        raise ValueError("need at least one job template")
    n = len(templates)
    return [
        templates[i % n].rescheduled(ev.query_id, ev.arrival_us)
        for i, ev in enumerate(events)
    ]


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load measurement."""

    offered_qps: float
    achieved_qps: float
    n_offered: int
    n_answered: int
    n_dropped: int
    n_shed: int
    p50_e2e_us: float
    p95_e2e_us: float
    p99_e2e_us: float
    mean_e2e_us: float
    peak_replicas: int

    @property
    def answered_frac(self) -> float:
        return self.n_answered / self.n_offered if self.n_offered else 0.0

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["answered_frac"] = self.answered_frac
        return d


def _point_from_report(
    report: ServeReport,
    offered_qps: float,
    n_offered: int,
    measured_ids: set[int] | None = None,
) -> LoadPoint:
    """Reduce a serve report to a point; with ``measured_ids``, restrict
    latency/answered accounting to those queries (warm-up exclusion)."""
    if measured_ids is None:
        recs = report.records
        n_dropped = report.meta.get("dropped", 0)
        n_shed = report.meta.get("shed", 0)
        e2e = report.sorted_latencies_us("e2e")
    else:
        recs = [r for r in report.records if r.query_id in measured_ids]
        n_dropped = sum(
            1 for q in report.meta.get("dropped_ids", ()) if q in measured_ids
        )
        n_shed = sum(
            1 for q in report.meta.get("shed_ids", ()) if q in measured_ids
        )
        e2e = np.sort(
            np.array([r.complete_us - r.arrival_us for r in recs], dtype=float)
        )
    q = (
        lambda p: float(np.percentile(e2e, p)) if e2e.size else float("inf")
    )
    return LoadPoint(
        offered_qps=offered_qps,
        achieved_qps=report.throughput_qps,
        n_offered=n_offered,
        n_answered=len(recs),
        n_dropped=n_dropped,
        n_shed=n_shed,
        p50_e2e_us=q(50),
        p95_e2e_us=q(95),
        p99_e2e_us=q(99),
        mean_e2e_us=float(e2e.mean()) if e2e.size else float("inf"),
        peak_replicas=report.meta.get("peak_replicas", 0),
    )


def run_load_point(
    templates: list[QueryJob],
    process: ArrivalProcess,
    n_queries: int,
    fleet: FleetConfig,
    autoscaler: AutoscalerPolicy | None = None,
    seed: int | None = None,
    warmup_frac: float = 0.0,
) -> tuple[LoadPoint, ServeReport]:
    """Serve one offered-load point through the fleet driver.

    ``warmup_frac`` excludes the first fraction of arrivals from the
    latency percentiles and the answered/dropped accounting — standard
    load-testing practice for measuring steady state rather than the
    cold-start/ramp transient (the warm-up queries are still offered and
    served; only the bookkeeping skips them).  An autoscaled fleet needs
    this: its ramp is *supposed* to lag the first burst.
    """
    if not 0.0 <= warmup_frac < 1.0:
        raise ValueError("warmup_frac must be in [0, 1)")
    events = process.events(n_queries, seed=seed)
    jobs = replay_jobs(templates, events)
    driver = FleetDriver(fleet, autoscaler_policy=autoscaler)
    report = driver.serve(jobs)
    qps = process.mean_qps
    if qps is None:  # closed loop / degenerate trace: infer from the stream
        span = events[-1].arrival_us - events[0].arrival_us if len(events) > 1 else 0.0
        qps = (len(events) - 1) / (span * 1e-6) if span > 0 else float("inf")
    measured = None
    n_measured = n_queries
    if warmup_frac > 0.0:
        cut = int(len(events) * warmup_frac)
        measured = {e.query_id for e in events[cut:]}
        n_measured = len(measured)
    return _point_from_report(report, qps, n_measured, measured), report


def _sweep_point_task(payload: dict) -> LoadPoint:
    # Module-level so process workers can unpickle it; the arrival
    # processes are built in the parent (make_process may be a lambda)
    # and everything crossing the boundary is a plain dataclass.
    point, _ = run_load_point(**payload)
    return point


def sweep_load(
    templates: list[QueryJob],
    make_process,
    rates_qps: list[float],
    n_queries: int,
    fleet: FleetConfig,
    autoscaler: AutoscalerPolicy | None = None,
    seed: int | None = None,
    warmup_frac: float = 0.0,
    progress=None,
    parallelism: int = 0,
) -> list[LoadPoint]:
    """Sweep offered load: ``make_process(rate_qps) -> ArrivalProcess``.

    Returns one :class:`LoadPoint` per rate, in sweep order.  Each rate
    point is an independent event simulation seeded on its own, so
    ``parallelism=N`` fans the points across workers with rate-ordered
    results identical to the sequential sweep; ``progress`` then fires
    after the fan-in (still in sweep order) rather than as each point
    lands.
    """
    payloads = [
        dict(
            templates=templates, process=make_process(rate),
            n_queries=n_queries, fleet=fleet, autoscaler=autoscaler,
            seed=seed, warmup_frac=warmup_frac,
        )
        for rate in rates_qps
    ]
    with make_pool(parallelism) as pool:
        points = pool.map(_sweep_point_task, payloads)
    if progress is not None:
        for point in points:
            progress(point)
    return points


def max_sustainable_qps(
    points: list[LoadPoint],
    p99_budget_us: float,
    min_answered: float = 0.99,
) -> float:
    """Highest offered QPS meeting the p99 budget and answer-rate floor.

    Reads the sweep like an SLO audit: a point *sustains* its rate if p99
    end-to-end latency is within budget and at least ``min_answered`` of
    offered queries were answered (drops and shed both count against).
    Returns 0.0 when no point qualifies.
    """
    ok = [
        p.offered_qps
        for p in points
        if p.p99_e2e_us <= p99_budget_us and p.answered_frac >= min_answered
    ]
    return max(ok, default=0.0)


def write_bench_load(
    path: str | os.PathLike,
    corpus: dict,
    curves: dict[str, list[LoadPoint]],
    p99_budget_us: float,
    min_answered: float = 0.99,
    extra: dict | None = None,
) -> dict:
    """Emit ``BENCH_load.json``: per-config latency-vs-QPS curves plus the
    max-sustainable-QPS headline per config.

    ``curves`` maps config label → sweep points.  Returns the document.
    """
    doc = {
        "benchmark": "open-loop offered-load sweep",
        "corpus": corpus,
        "p99_budget_us": p99_budget_us,
        "min_answered": min_answered,
        "curves": {
            label: [p.to_dict() for p in pts] for label, pts in curves.items()
        },
        "max_sustainable_qps": {
            label: max_sustainable_qps(pts, p99_budget_us, min_answered)
            for label, pts in curves.items()
        },
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n")
    return doc

"""Fleet driver, autoscaler, and load harness unit tests."""

import dataclasses

import numpy as np
import pytest

from repro.core.serving import QueryJob
from repro.data.workload import Poisson, closed_loop, poisson_arrivals
from repro.load import (
    Autoscaler,
    AutoscalerPolicy,
    FleetConfig,
    FleetDriver,
    LoadPoint,
    max_sustainable_qps,
    replay_jobs,
    run_load_point,
    sweep_load,
    write_bench_load,
)
from repro.telemetry import Telemetry


def _jobs(n, service_us=100.0, gap_us=50.0, ctas=2):
    """Synthetic priced jobs: n arrivals spaced gap_us apart."""
    return [
        QueryJob(
            query_id=i,
            arrival_us=i * gap_us,
            cta_durations_us=tuple([service_us] * ctas),
            dim=8,
            k=4,
        )
        for i in range(n)
    ]


# -------------------------------------------------------------- autoscaler
def test_policy_validation():
    with pytest.raises(ValueError):
        AutoscalerPolicy(min_replicas=3, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalerPolicy(scale_up_depth=2.0, scale_down_depth=2.0)
    with pytest.raises(ValueError):
        AutoscalerPolicy(check_interval_us=0)


def test_autoscaler_hysteresis_and_cooldown():
    p = AutoscalerPolicy(min_replicas=1, max_replicas=4, scale_up_depth=10.0,
                         scale_down_depth=2.0, cooldown_us=100.0)
    a = Autoscaler(p)
    # deep backlog: one step up, then frozen by cooldown
    assert a.target(0.0, depth=100, replicas=2) == 3
    assert a.target(50.0, depth=100, replicas=3) == 3
    # after cooldown, another step (per-replica threshold: 100 > 10*3)
    assert a.target(200.0, depth=100, replicas=3) == 4
    # at max: no further growth
    assert a.target(400.0, depth=1000, replicas=4) == 4
    # idle: steps down to min one at a time
    assert a.target(600.0, depth=0, replicas=4) == 3
    assert a.target(800.0, depth=1, replicas=3) == 2
    # the dead band between thresholds holds steady
    assert a.target(1000.0, depth=5, replicas=2) == 2
    assert len(a.decisions) == 4
    assert [(d.old, d.new) for d in a.decisions] == [
        (2, 3), (3, 4), (4, 3), (3, 2)]


# ------------------------------------------------------------ fleet driver
def test_fleet_serves_everything_underloaded():
    jobs = _jobs(50, service_us=100.0, gap_us=50.0)
    rep = FleetDriver(FleetConfig(n_replicas=2, slots_per_replica=8)).serve(jobs)
    assert len(rep.records) == 50
    assert rep.meta["dropped"] == 0 and rep.meta["shed"] == 0
    assert rep.meta["peak_replicas"] == 2
    # e2e latency ~= dispatch + service + collect when uncontended
    cfg = FleetConfig()
    floor = 100.0 + cfg.dispatch_overhead_us + cfg.collect_overhead_us
    e2e = rep.sorted_latencies_us("e2e")
    assert e2e.min() == pytest.approx(floor, rel=1e-6)


def test_fleet_deterministic():
    jobs = _jobs(40, gap_us=10.0)
    a = FleetDriver(FleetConfig(n_replicas=2)).serve(jobs)
    b = FleetDriver(FleetConfig(n_replicas=2)).serve(jobs)
    assert [r.complete_us for r in a.records] == [
        r.complete_us for r in b.records]


def test_fleet_rejects_duplicate_ids():
    jobs = _jobs(3)
    jobs[2] = jobs[0]
    with pytest.raises(ValueError, match="duplicate"):
        FleetDriver(FleetConfig()).serve(jobs)


def test_fleet_deadline_drops_are_drops_not_failures():
    # 1 replica x 1 slot, service 100us, arrivals every 10us: the queue
    # builds and the 150us relative deadline reaps the backlog.
    jobs = _jobs(30, service_us=100.0, gap_us=10.0)
    cfg = FleetConfig(n_replicas=1, slots_per_replica=1, deadline_us=150.0)
    rep = FleetDriver(cfg).serve(jobs)
    assert rep.meta["dropped"] > 0
    assert rep.meta["shed"] == 0  # no depth limit -> nothing shed
    assert len(rep.records) + rep.meta["dropped"] == 30
    assert set(rep.meta["dropped_ids"]).isdisjoint(
        r.query_id for r in rep.records)


def test_fleet_shedding_counts_and_telemetry():
    jobs = _jobs(60, service_us=200.0, gap_us=5.0)
    cfg = FleetConfig(n_replicas=1, slots_per_replica=2, max_queue_depth=4)
    tel = Telemetry()
    rep = FleetDriver(cfg, telemetry=tel).serve(jobs)
    assert rep.meta["shed"] > 0
    # shed is a subset of dropped: admission losses are accounted as drops
    assert set(rep.meta["shed_ids"]) <= set(rep.meta["dropped_ids"])
    assert len(rep.records) + rep.meta["dropped"] == 60
    # the Prometheus counter carries the same number
    shed_metric = tel.registry.get("algas_queries_shed_total")
    assert shed_metric is not None
    assert shed_metric.value == rep.meta["shed"]


def test_fleet_autoscales_under_overload():
    # Offered load needs ~4 replicas; the fleet starts at 1.
    jobs = _jobs(800, service_us=400.0, gap_us=2.0)
    policy = AutoscalerPolicy(min_replicas=1, max_replicas=4,
                              scale_up_depth=8.0, check_interval_us=100.0,
                              provision_delay_us=500.0, cooldown_us=200.0)
    tel = Telemetry()
    rep = FleetDriver(FleetConfig(n_replicas=1, slots_per_replica=4),
                      autoscaler_policy=policy, telemetry=tel).serve(jobs)
    assert rep.meta["peak_replicas"] > 1
    events = rep.meta["scale_events"]
    assert events and events[0]["from"] == 1 and events[0]["to"] == 2
    scale_metric = tel.registry.get("algas_scale_events_total")
    assert scale_metric.value == len(events)
    # everything still answered: scaling added capacity, dropped nothing
    assert len(rep.records) == 800
    # scaled fleet beats the fixed single replica on tail latency
    fixed = FleetDriver(FleetConfig(n_replicas=1, slots_per_replica=4)).serve(jobs)
    assert (np.percentile(rep.sorted_latencies_us("e2e"), 99)
            < np.percentile(fixed.sorted_latencies_us("e2e"), 99))


def test_fleet_requires_start_within_policy_bounds():
    with pytest.raises(ValueError, match="min_replicas"):
        FleetDriver(FleetConfig(n_replicas=8),
                    autoscaler_policy=AutoscalerPolicy(max_replicas=4))


def test_one_replica_fleet_tracks_dynamic_engine():
    """Calibration: a 1-replica fleet over-prices the real
    DynamicBatchEngine's mean service latency on the same jobs, by a
    bounded margin.  The fleet prices service as dispatch + max(cta) +
    collect with fixed overheads; the engine simulates per-CTA slots.  The
    error is +4.1 to +4.9 % at bench_load's templates (~29 us service,
    docs/load_testing.md) and +11 % on these short ~13 us jobs, where the
    fixed overheads weigh more."""
    from repro.core import ALGASSystem
    from repro.data import load_dataset
    from repro.graphs import build_nsw

    ds = load_dataset("sift1m-mini", n=1500, n_queries=32, gt_k=8, seed=0)
    g = build_nsw(ds.base, m=6, metric=ds.metric, seed=0)
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=16, seed=0)
    _, _, traces = system.search_all(ds.queries)
    events = poisson_arrivals(32, rate_qps=20_000, seed=1)
    jobs = system.jobs_from_traces(traces, events)

    engine_rep = system.make_engine().serve(jobs)
    fleet_rep = FleetDriver(
        FleetConfig(n_replicas=1, slots_per_replica=16)).serve(jobs)
    m_engine = engine_rep.mean_latency_us()
    m_fleet = fleet_rep.mean_latency_us()
    assert 1.0 < m_fleet / m_engine < 1.15, (m_fleet, m_engine)


# ---------------------------------------------------------------- harness
def test_replay_jobs_cycles_templates():
    templates = _jobs(3, service_us=50.0)
    events = poisson_arrivals(10, 1_000, seed=0)
    out = replay_jobs(templates, events)
    assert len(out) == 10
    assert [j.query_id for j in out] == [e.query_id for e in events]
    assert [j.arrival_us for j in out] == [e.arrival_us for e in events]
    assert out[4].cta_durations_us == templates[1].cta_durations_us
    with pytest.raises(ValueError):
        replay_jobs([], events)


def test_replay_jobs_equals_dataclasses_replace():
    """The clone is field for field what ``dataclasses.replace`` builds —
    hybrid-tier fields included — and as frozen."""
    templates = [
        QueryJob(90 + i, 0.0, (10.0 + i, 12.5), dim=8, k=4,
                 host_us=1.5 * i, result_entries=None if i == 1 else 32 + i)
        for i in range(3)
    ]
    events = poisson_arrivals(8, 1_000, seed=3)
    out = replay_jobs(templates, events)
    assert out == [
        dataclasses.replace(
            templates[i % 3], query_id=ev.query_id, arrival_us=ev.arrival_us
        )
        for i, ev in enumerate(events)
    ]
    assert hash(out[2]) == hash(dataclasses.replace(out[2]))
    assert out[3].cta_durations_us is templates[0].cta_durations_us
    with pytest.raises(dataclasses.FrozenInstanceError):
        out[0].k = 5
    with pytest.raises(ValueError):
        QueryJob(0, 0.0, (3.0, -1.0), dim=8, k=4)  # validation still runs


def test_run_load_point_and_sweep():
    templates = _jobs(4, service_us=100.0)
    fleet = FleetConfig(n_replicas=2, slots_per_replica=8)
    point, report = run_load_point(
        templates, Poisson(rate_qps=20_000, seed=0), 200, fleet)
    assert point.n_offered == 200
    assert point.offered_qps == 20_000
    assert point.n_answered == len(report.records)
    assert point.answered_frac == 1.0
    assert point.p50_e2e_us <= point.p95_e2e_us <= point.p99_e2e_us

    # second rate is past the fleet's ~150k qps capacity, so it must queue
    pts = sweep_load(templates, lambda r: Poisson(rate_qps=r, seed=0),
                     [5_000, 400_000], 200, fleet)
    assert [p.offered_qps for p in pts] == [5_000, 400_000]
    assert pts[0].p99_e2e_us < pts[1].p99_e2e_us


def test_max_sustainable_qps_frontier():
    def pt(qps, p99, frac):
        return LoadPoint(
            offered_qps=qps, achieved_qps=qps, n_offered=100,
            n_answered=int(100 * frac), n_dropped=100 - int(100 * frac),
            n_shed=0, p50_e2e_us=p99 / 2, p95_e2e_us=p99 * 0.9,
            p99_e2e_us=p99, mean_e2e_us=p99 / 2, peak_replicas=2)

    pts = [pt(1000, 100.0, 1.0), pt(2000, 200.0, 1.0),
           pt(4000, 5000.0, 1.0), pt(8000, 300.0, 0.5)]
    assert max_sustainable_qps(pts, p99_budget_us=250.0) == 2000
    # the 8000-qps point meets any latency budget by shedding half its
    # queries — the answered floor disqualifies it, leaving 4000
    assert max_sustainable_qps(pts, p99_budget_us=1e6) == 4000
    assert max_sustainable_qps(pts, p99_budget_us=50.0) == 0.0


def test_write_bench_load_document(tmp_path):
    import json

    templates = _jobs(2, service_us=80.0)
    fleet = FleetConfig(n_replicas=1, slots_per_replica=4)
    pts = sweep_load(templates, lambda r: Poisson(rate_qps=r, seed=0),
                     [2_000], 50, fleet)
    out = tmp_path / "BENCH_load.json"
    doc = write_bench_load(out, {"dataset": "synthetic"}, {"fixed-1r": pts},
                           p99_budget_us=10_000.0)
    loaded = json.loads(out.read_text())
    assert loaded == doc  # _json_safe made the document round-trippable
    assert loaded["curves"]["fixed-1r"][0]["n_offered"] == 50
    assert "fixed-1r" in loaded["max_sustainable_qps"]


def test_warmup_exclusion():
    """warmup_frac drops the ramp from the bookkeeping: the cold-start
    queue spike disappears from the percentiles, while the full-stream
    point still sees it."""
    # burst of early arrivals, then a calm steady state
    templates = _jobs(2, service_us=100.0)
    burst = [0.0] * 64 + [10_000.0 + 200.0 * i for i in range(64)]
    from repro.data.workload import TraceReplay

    proc = TraceReplay(arrival_us=tuple(burst))
    fleet = FleetConfig(n_replicas=1, slots_per_replica=2)
    cold, _ = run_load_point(templates, proc, 128, fleet)
    warm, _ = run_load_point(templates, proc, 128, fleet, warmup_frac=0.5)
    assert warm.n_offered == 64
    assert warm.p99_e2e_us < cold.p99_e2e_us
    # steady-state arrivals are uncontended: e2e ~= service + overheads
    assert warm.p99_e2e_us < 200.0
    with pytest.raises(ValueError):
        run_load_point(templates, proc, 128, fleet, warmup_frac=1.0)

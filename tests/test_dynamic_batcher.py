"""Unit tests for the dynamic batching engine."""

import ast
import inspect
import math
from functools import partial

import numpy as np
import pytest

from repro.core import dynamic_batcher
from repro.core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
from repro.core.serving import QueryJob
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000

from .golden import make_schedules as golden


def mkengine(**kw):
    cfg = dict(n_slots=4, n_parallel=2, k=8)
    cfg.update(kw)
    return DynamicBatchEngine(RTX_A6000, CostModel(RTX_A6000), DynamicBatchConfig(**cfg))


def mkjobs(n, dur=20.0, n_parallel=2, arrival=0.0, spread=0.0):
    return [
        QueryJob(i, arrival + i * spread, tuple([dur] * n_parallel), 128, 8)
        for i in range(n)
    ]


def test_all_queries_complete():
    rep = mkengine().serve(mkjobs(12))
    assert len(rep.records) == 12
    for r in rep.records:
        assert r.complete_us > r.gpu_end_us > r.gpu_start_us >= r.dispatch_us >= 0


def test_no_batch_barrier():
    """A slot with a short query returns before a long query elsewhere."""
    eng = mkengine(n_slots=2)
    jobs = [
        QueryJob(0, 0.0, (5.0, 5.0), 128, 8),
        QueryJob(1, 0.0, (500.0, 500.0), 128, 8),
    ]
    rep = eng.serve(jobs)
    r0 = next(r for r in rep.records if r.query_id == 0)
    r1 = next(r for r in rep.records if r.query_id == 1)
    assert r0.complete_us < 0.2 * r1.complete_us


def test_slot_reuse_pipeline():
    """More jobs than slots: slots refill without waiting for others."""
    eng = mkengine(n_slots=2)
    rep = eng.serve(mkjobs(8))
    # 8 jobs on 2 slots, ~20us each -> makespan ~ 4*20 + overheads, far less
    # than a serial 8*20 + 8*overheads execution.
    assert rep.makespan_us < 8 * 25.0
    assert rep.gpu_utilization > 0.4


def test_respects_arrivals():
    eng = mkengine(n_slots=4)
    jobs = mkjobs(4, arrival=1000.0)
    rep = eng.serve(jobs)
    for r in rep.records:
        assert r.dispatch_us >= 1000.0


def test_latency_components_ordered():
    rep = mkengine().serve(mkjobs(6))
    for r in rep.records:
        assert r.detected_us >= r.gpu_end_us
        assert r.complete_us >= r.detected_us


def test_gpu_merge_mode_slower():
    jobs = mkjobs(16)
    cpu = mkengine(merge_on_cpu=True).serve(jobs)
    gpu = mkengine(merge_on_cpu=False).serve(jobs)
    assert cpu.mean_latency_us() < gpu.mean_latency_us()


def test_naive_state_mode_pcie_traffic():
    jobs = mkjobs(16)
    gdr = mkengine(state_mode="gdrcopy").serve(jobs)
    naive = mkengine(state_mode="naive").serve(jobs)
    assert naive.pcie.by_tag.get("state-poll", 0) > 0
    assert gdr.pcie.by_tag.get("state-poll", 0) == 0
    assert naive.mean_latency_us() >= gdr.mean_latency_us()


def test_multi_thread_partition():
    jobs = mkjobs(24)
    one = mkengine(host_threads=1).serve(jobs)
    four = mkengine(host_threads=4).serve(jobs)
    assert len(four.records) == 24
    # same work completes under both configurations
    assert four.makespan_us <= one.makespan_us * 1.5


def test_wrong_cta_count_rejected():
    eng = mkengine(n_parallel=4)
    with pytest.raises(ValueError):
        eng.serve(mkjobs(2, n_parallel=2))


def test_config_validation():
    with pytest.raises(ValueError):
        DynamicBatchConfig(n_slots=0, n_parallel=1, k=1)
    with pytest.raises(ValueError):
        DynamicBatchConfig(n_slots=1, n_parallel=1, k=1, host_threads=0)
    with pytest.raises(ValueError):
        DynamicBatchConfig(n_slots=1, n_parallel=1, k=1, host_poll_period_us=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("state_mode", "gdr"),  # used to construct, and raise inside serve()
        ("gpu_poll_us", -5.0),  # used to serve with gpu_start_us < dispatch_us
        ("host_submit_us", -0.1),
        ("result_entry_bytes", 0),
        ("result_entry_bytes", -8),
    ],
)
def test_config_rejects_out_of_range_field_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        DynamicBatchConfig(n_slots=1, n_parallel=1, k=1, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        # each of these used to construct, and a serve on it hung or
        # reported an infinite makespan
        ("host_poll_period_us", math.nan),
        ("host_poll_period_us", math.inf),
        ("host_submit_us", math.nan),
        ("host_submit_us", math.inf),
        ("gpu_poll_us", math.nan),
        ("gpu_poll_us", math.inf),
    ],
)
def test_config_refuses_non_finite_times(field, value):
    with pytest.raises(ValueError, match=field):
        DynamicBatchConfig(n_slots=1, n_parallel=1, k=1, **{field: value})


@pytest.mark.parametrize(
    "field, kw",
    [
        ("arrival_us", dict(arrival_us=math.nan)),
        ("arrival_us", dict(arrival_us=math.inf)),
        ("host_us", dict(host_us=math.nan)),
        ("host_us", dict(host_us=math.inf)),
        ("cta_durations_us", dict(cta_durations_us=(20.0, math.inf))),
        ("cta_durations_us", dict(cta_durations_us=(20.0, math.nan))),
        ("cta_durations_us", dict(cta_durations_us=(math.nan, 20.0))),
    ],
)
def test_job_refuses_non_finite_times(field, kw):
    job = dict(query_id=0, arrival_us=0.0, cta_durations_us=(20.0, 20.0), dim=128, k=8)
    with pytest.raises(ValueError, match=field):
        QueryJob(**{**job, **kw})


@pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
def test_rescheduled_job_refuses_non_finite_arrival(arrival):
    job = mkjobs(1)[0]
    with pytest.raises(ValueError, match="arrival_us"):
        job.rescheduled(7, arrival)
    assert job.rescheduled(7, 3.5).arrival_us == 3.5


def test_config_boundary_values_construct():
    cfg = DynamicBatchConfig(
        n_slots=1, n_parallel=1, k=1, state_mode="naive", gpu_poll_us=0.0,
        host_submit_us=0.0, result_entry_bytes=1,
    )
    assert cfg.gpu_poll_us == 0.0 and cfg.state_mode == "naive"


def test_gpu_busy_accounting():
    jobs = mkjobs(5, dur=10.0)
    rep = mkengine().serve(jobs)
    assert rep.gpu_cta_busy_us == pytest.approx(5 * 2 * 10.0)


def test_empty_jobs():
    rep = mkengine().serve([])
    assert rep.records == [] and rep.makespan_us == 0.0


def test_priority_queries_served_first():
    from repro.core.query_manager import ManagedQuery

    eng = mkengine(n_slots=1)
    managed = [
        ManagedQuery(QueryJob(0, 0.0, (30.0, 30.0), 128, 8), priority=0),
        ManagedQuery(QueryJob(1, 0.0, (30.0, 30.0), 128, 8), priority=0),
        ManagedQuery(QueryJob(2, 0.0, (30.0, 30.0), 128, 8), priority=9),
    ]
    rep = eng.serve([], managed=managed)
    order = sorted(rep.records, key=lambda r: r.dispatch_us)
    assert order[0].query_id == 2  # urgent query jumps the queue


def test_deadline_dropped_queries_excluded():
    from repro.core.query_manager import ManagedQuery

    eng = mkengine(n_slots=1)
    managed = [
        ManagedQuery(QueryJob(0, 0.0, (200.0, 200.0), 128, 8)),
        # arrives immediately but expires long before the slot frees up
        ManagedQuery(QueryJob(1, 0.0, (200.0, 200.0), 128, 8), deadline_us=50.0),
        ManagedQuery(QueryJob(2, 0.0, (200.0, 200.0), 128, 8)),
    ]
    rep = eng.serve([], managed=managed)
    served = {r.query_id for r in rep.records}
    assert served == {0, 2}
    assert rep.meta["dropped"] == 1 and rep.meta["dropped_ids"] == [1]


#: (events, host passes) per query allowed on the 16 x 8 Poisson replays of
#: tests/golden — what the scheduler reaches, rounded up.  An event is one
#: of the 8 CTA ends (7 quiet posts, one loud last CTA) or one host pass.
#: The dense pass (commit c52a86c) ran 63.83 / 13.11 / 12.18 events; with
#: every CTA end a loud event the pure wakes stopped at each, for 16.80 /
#: 12.06 / 11.49 events and 8.80 / 4.06 / 3.49 passes.
PER_QUERY_GATES = {
    "poisson-sparse-16x8": (11.02, 3.02),
    "poisson-knee-16x8": (9.97, 1.97),
    "poisson-overload-16x8": (9.60, 1.60),
}


def _counted_run(scenario):
    """Scenario ``scenario`` run to the end; returns it and its host passes."""
    run = golden.scheduler_run(scenario)
    n_passes = [0]

    def counted(pass_fn, sim):
        n_passes[0] += 1
        pass_fn(sim)

    run.passes[:] = [partial(counted, p) for p in run.passes]
    run.run()
    assert run.outstanding == 0
    return run, n_passes[0]


@pytest.mark.parametrize("scenario", sorted(PER_QUERY_GATES))
def test_events_per_query_gate(scenario):
    """Host cost is per event, so the event count is the deterministic half
    of the scheduler's speed: it repeats exactly, and fails tier-1 without a
    timer if polling an idle system comes back."""
    run, _ = _counted_run(scenario)
    assert run.sim._events_run / len(run.jobs) <= PER_QUERY_GATES[scenario][0]


@pytest.mark.parametrize("scenario", sorted(PER_QUERY_GATES))
def test_host_passes_per_query_gate(scenario):
    """A non-last CTA's FINISH is a quiet post, so a pure host wake is not
    stopped by it: about one pass dispatches a query and one collects it."""
    run, n_passes = _counted_run(scenario)
    assert n_passes / len(run.jobs) <= PER_QUERY_GATES[scenario][1]


def _function_nesting(tree):
    """``(name, lineno, depth)`` per ``def``; depth = enclosing functions."""
    found = []

    def walk(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.name, child.lineno, depth))
                walk(child, depth + 1)
            else:
                walk(child, depth)

    walk(tree, 0)
    return found


def test_scheduler_handlers_are_flat():
    """Every scheduler event is a named method: no ``def`` sits more than
    one level inside a method or module-level function, and ``serve`` is a
    short validate -> run -> report."""
    tree = ast.parse(inspect.getsource(dynamic_batcher))
    defs = _function_nesting(tree)
    assert [d for d in defs if d[2] > 1] == []
    serve = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "serve"
    )
    assert serve.end_lineno - serve.lineno + 1 <= 60
    names = {d[0] for d in defs}
    assert {"dispatch", "cta_end", "publish_merged", "collect", "watchdog",
            "reap", "update_degrade", "host_pass", "report"} <= names

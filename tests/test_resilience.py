"""Tests for the fault-injection plane and the resilience defenses."""

import numpy as np
import pytest

from repro.core.cluster import ReplicatedServer, ShardedServer
from repro.core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
from repro.core.serving import QueryJob, ServeConfig
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import build_cagra
from repro.resilience import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultPlan,
    PCIeStall,
    ResiliencePolicy,
    ShardFault,
    SlotFault,
    load_plan,
    named_plan,
    run_chaos,
)


def mkengine(faults=None, resilience=None, telemetry=None, **kw):
    cfg = dict(n_slots=4, n_parallel=2, k=8)
    cfg.update(kw)
    return DynamicBatchEngine(
        RTX_A6000, CostModel(RTX_A6000), DynamicBatchConfig(**cfg),
        telemetry=telemetry, faults=faults, resilience=resilience,
    )


def mkjobs(n, dur=20.0, n_parallel=2, arrival=0.0, spread=0.0):
    return [
        QueryJob(i, arrival + i * spread, tuple([dur] * n_parallel), 128, 8)
        for i in range(n)
    ]


FAST = ResiliencePolicy(watchdog_budget_us=100.0, retry_backoff_us=10.0,
                        retry_backoff_cap_us=40.0)


# ---------------------------------------------------------------- fault plans
def test_slot_fault_validation():
    with pytest.raises(ValueError):
        SlotFault(0, "melt")
    with pytest.raises(ValueError):
        SlotFault(-1, "hang")
    with pytest.raises(ValueError):
        SlotFault(0, "straggle", factor=1.0)
    with pytest.raises(ValueError):
        ShardFault(0, "slow", factor=0.5)
    with pytest.raises(ValueError):
        PCIeStall(start_us=-1.0, duration_us=10.0)


def test_plan_rejects_duplicate_slot_faults():
    with pytest.raises(ValueError):
        FaultPlan(slot_faults=(SlotFault(0, "hang"), SlotFault(0, "corrupt")))


def test_plan_json_roundtrip():
    plan = named_plan("smoke")
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan and not again.empty


def test_plan_for_shard_slices():
    plan = named_plan("smoke")
    p1 = plan.for_shard(1)
    assert {f.kind for f in p1.slot_faults} == {"hang", "corrupt"}
    assert p1.pcie_stalls == ()  # the stall targets shard 2
    assert plan.for_shard(2).pcie_stalls != ()
    assert plan.shard_fault(3).kind == "kill"
    assert plan.shard_fault(0) is None
    # global faults (shard=None) reach every engine
    g = FaultPlan(slot_faults=(SlotFault(0, "hang"),))
    assert g.for_shard(5).slot_faults == g.slot_faults


def test_named_plans():
    for name in ("none", "smoke", "slot-hangs", "shard-kill", "stragglers"):
        assert isinstance(named_plan(name), FaultPlan)
    assert named_plan("none").empty
    with pytest.raises(ValueError):
        named_plan("nope")


def test_random_plan_census_and_determinism():
    a = FaultPlan.random(3, n_slots=8, n_hangs=2, n_corrupts=1, n_straggles=1,
                         n_shards=4, n_shard_kills=1)
    b = FaultPlan.random(3, n_slots=8, n_hangs=2, n_corrupts=1, n_straggles=1,
                         n_shards=4, n_shard_kills=1)
    assert a == b
    kinds = sorted(f.kind for f in a.slot_faults)
    assert kinds == ["corrupt", "hang", "hang", "straggle"]
    assert len(a.shard_faults) == 1
    with pytest.raises(ValueError):
        FaultPlan.random(0, n_slots=1, n_hangs=2)


def test_injector_fires_once_on_nth_dispatch():
    plan = FaultPlan(slot_faults=(SlotFault(0, "hang", on_dispatch=2),))
    inj = FaultInjector(plan)
    assert inj.on_dispatch(0) is None       # 1st dispatch: armed for 2nd
    fault = inj.on_dispatch(0)
    assert fault is not None and fault.kind == "hang"
    assert inj.on_dispatch(0) is None       # fired exactly once
    assert inj.on_dispatch(1) is None


def test_injector_stall_windows_sorted():
    plan = FaultPlan(pcie_stalls=(PCIeStall(50.0, 10.0), PCIeStall(5.0, 10.0)))
    assert FaultInjector(plan).stall_windows == ((5.0, 15.0), (50.0, 60.0))


# --------------------------------------------------------------------- policy
def test_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(watchdog_budget_us=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(retry_backoff_us=100.0, retry_backoff_cap_us=50.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(degrade_factor=0.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(hedge_percentile=0.0)


def test_policy_backoff_capped_exponential():
    p = ResiliencePolicy(retry_backoff_us=50.0, retry_backoff_cap_us=800.0)
    assert [p.backoff_us(i) for i in (1, 2, 3, 4, 5, 6)] == \
        [50.0, 100.0, 200.0, 400.0, 800.0, 800.0]


def test_policy_quorum_default_tolerates_one():
    p = ResiliencePolicy()
    assert p.quorum(4) == 3 and p.quorum(1) == 1
    assert ResiliencePolicy(quorum_k=2).quorum(4) == 2
    assert ResiliencePolicy(quorum_k=9).quorum(4) == 4


# ------------------------------------------------------------ engine defenses
def test_watchdog_recovers_hung_slot():
    plan = FaultPlan(slot_faults=(SlotFault(0, "hang"),))
    eng = mkengine(n_slots=2, faults=plan, resilience=FAST)
    rep = eng.serve(mkjobs(6))
    assert len(rep.records) == 6
    res = rep.meta["resilience"]
    assert res["watchdog_kills"] == 1 and res["retries"] == 1
    assert res["faults_injected"] == {"hang": 1}
    assert rep.meta["failed"] == 0
    retried = [r for r in rep.records if r.retries]
    assert len(retried) == 1 and retried[0].retries == 1
    # the victim waited out the watchdog budget before its retry
    assert retried[0].complete_us >= FAST.watchdog_budget_us


def test_watchdog_recovers_corrupted_slot():
    plan = FaultPlan(slot_faults=(SlotFault(0, "corrupt"),))
    eng = mkengine(n_slots=2, faults=plan, resilience=FAST)
    rep = eng.serve(mkjobs(6))
    assert len(rep.records) == 6
    res = rep.meta["resilience"]
    assert res["faults_injected"] == {"corrupt": 1}
    assert res["watchdog_kills"] == 1 and rep.meta["failed"] == 0


def test_corrupted_single_cta_slot_is_reaped_not_refilled():
    """With one CTA a corrupted slot's only state word reads NONE.  It is
    still running a job: it must wait for the watchdog, not be handed the
    next query over the lost one (which used to spin the simulation until
    the event budget)."""
    plan = FaultPlan(slot_faults=(SlotFault(0, "corrupt"),))
    eng = mkengine(n_slots=2, n_parallel=1, faults=plan, resilience=FAST)
    rep = eng.serve(mkjobs(6, n_parallel=1))
    assert len(rep.records) == 6 and rep.meta["failed"] == 0
    res = rep.meta["resilience"]
    assert res["watchdog_kills"] == 1 and res["retries"] == 1


def test_straggler_priced_not_killed():
    plan = FaultPlan(slot_faults=(SlotFault(0, "straggle", factor=10.0),))
    eng = mkengine(n_slots=2, faults=plan)  # defaults arm DEFAULT_POLICY
    rep = eng.serve(mkjobs(2))
    res = rep.meta["resilience"]
    assert res["faults_injected"] == {"straggle": 1}
    assert res["watchdog_kills"] == 0  # slow, not wedged
    spans = sorted(r.gpu_end_us - r.gpu_start_us for r in rep.records)
    assert spans[0] == pytest.approx(20.0) and spans[1] == pytest.approx(200.0)


def test_retry_exhaustion_fails_query():
    # Both slots hang on their first dispatch; one retry allowed, so the
    # query dies after the second kill and the engine still drains.
    plan = FaultPlan(slot_faults=(SlotFault(0, "hang"), SlotFault(1, "hang")))
    policy = ResiliencePolicy(watchdog_budget_us=100.0, max_retries=1,
                              retry_backoff_us=10.0, retry_backoff_cap_us=10.0)
    eng = mkengine(n_slots=2, faults=plan, resilience=policy)
    rep = eng.serve(mkjobs(1))
    assert rep.records == []
    res = rep.meta["resilience"]
    assert res["watchdog_kills"] == 2 and res["retries"] == 1
    assert res["retry_failures"] == 1
    assert rep.meta["failed"] == 1 and rep.meta["failed_ids"] == [0]


def test_stranded_queries_fail_not_deadlock():
    # The only slot hangs: its queue can never drain, but serve() returns
    # with the whole workload accounted as failed.
    plan = FaultPlan(slot_faults=(SlotFault(0, "hang"),))
    policy = ResiliencePolicy(watchdog_budget_us=100.0, max_retries=0)
    eng = mkengine(n_slots=1, faults=plan, resilience=policy)
    rep = eng.serve(mkjobs(3))
    assert rep.records == []
    assert rep.meta["failed"] == 3 and rep.meta["failed_ids"] == [0, 1, 2]


def test_pcie_stall_accounted():
    plan = FaultPlan(pcie_stalls=(PCIeStall(start_us=0.0, duration_us=30.0),))
    rep = mkengine(faults=plan).serve(mkjobs(4))
    assert rep.pcie.stall_us > 0.0
    assert len(rep.records) == 4


def test_overload_degradation_shrinks_work():
    policy = ResiliencePolicy(degrade_queue_depth=2, restore_queue_depth=0,
                              degrade_factor=0.5)
    eng = mkengine(n_slots=2, resilience=policy)
    rep = eng.serve(mkjobs(16, dur=40.0))
    res = rep.meta["resilience"]
    assert res["degraded_dispatches"] > 0
    assert res["degraded_windows"] >= 1 and res["degraded_us"] > 0.0
    degraded = [r for r in rep.records if r.degraded]
    assert len(degraded) == res["degraded_dispatches"]
    # shrunken dispatches ran at half the priced duration
    assert min(r.gpu_end_us - r.gpu_start_us for r in degraded) == \
        pytest.approx(20.0)
    assert len(rep.records) == 16


def test_empty_plan_bit_parity():
    jobs = mkjobs(10, spread=3.0)
    plain = mkengine().serve(jobs).to_dict()
    armed = mkengine(faults=FaultPlan()).serve(jobs).to_dict()
    assert plain == armed


def test_policy_without_faults_is_parity_on_healthy_run():
    # Watchdog armed but nothing hangs: same records, extra accounting only.
    jobs = mkjobs(10, spread=3.0)
    plain = mkengine().serve(jobs)
    armed = mkengine(resilience=DEFAULT_POLICY).serve(jobs)
    assert [vars(a) for a in plain.records] == [vars(b) for b in armed.records]
    assert armed.meta["resilience"]["watchdog_kills"] == 0


def test_static_baselines_reject_faults(ds, graph):
    from repro.baselines import CAGRASystem

    system = CAGRASystem(ds.base, graph, metric=ds.metric, k=8, batch_size=4)
    with pytest.raises(ValueError, match="dynamic-engine"):
        system.serve(ds.queries[:4], ServeConfig(faults=named_plan("slot-hangs")))


# ----------------------------------------------------------- cluster defenses
def test_hedge_rescues_killed_replica(ds, graph):
    srv = ReplicatedServer(ds.base, graph, n_gpus=2, metric=ds.metric,
                           k=8, batch_size=8)
    plan = FaultPlan(shard_faults=(ShardFault(0, "kill", at_us=0.0),))
    rep = srv.serve(ds.queries, ServeConfig(
        faults=plan, resilience=ResiliencePolicy(hedge_delay_us=100.0)))
    res = rep.serve.meta["resilience"]
    n = ds.queries.shape[0]
    assert len(rep.serve.records) == n and rep.serve.meta["failed"] == 0
    assert res["hedges"] >= n // 2 and res["hedge_wins"] == n // 2
    assert res["faults_injected"]["shard_kill"] == 1
    # rescued queries pay the hedge delay before the backup serves them
    by_qid = {r.query_id: r for r in rep.serve.records}
    rescued = [by_qid[q] for q in range(0, n, 2)]  # replica 0's queries
    assert all(r.complete_us >= 100.0 for r in rescued)


def test_hedge_rescue_keeps_the_backups_degraded_flag(ds, graph):
    """A query lost with its replica and answered by the backup under
    overload degradation reports ``degraded`` — the backup's record whole,
    at the query's original arrival."""
    srv = ReplicatedServer(ds.base, graph, n_gpus=2, metric=ds.metric,
                           k=8, batch_size=4)
    plan = FaultPlan(shard_faults=(ShardFault(1, "kill", at_us=0.0),))
    policy = ResiliencePolicy(hedge_delay_us=100.0, degrade_queue_depth=1)
    rep = srv.serve(ds.queries, ServeConfig(faults=plan, resilience=policy))
    n = ds.queries.shape[0]
    assert rep.serve.meta["resilience"]["hedge_wins"] == n // 2
    rescued = [r for r in rep.serve.records if r.query_id % 2 == 1]
    assert len(rescued) == n // 2
    assert any(r.degraded for r in rescued)
    assert all(r.arrival_us == 0.0 for r in rescued)  # closed loop
    assert all(r.dispatch_us >= 100.0 for r in rescued)


def test_hedge_without_backup_fails(ds, graph):
    srv = ReplicatedServer(ds.base, graph, n_gpus=1, metric=ds.metric,
                           k=8, batch_size=8)
    plan = FaultPlan(shard_faults=(ShardFault(0, "kill", at_us=0.0),))
    rep = srv.serve(ds.queries, ServeConfig(faults=plan))
    assert rep.serve.records == []
    assert rep.serve.meta["failed"] == ds.queries.shape[0]


def test_replicated_parity(ds, graph):
    srv = ReplicatedServer(ds.base, graph, n_gpus=2, metric=ds.metric,
                           k=8, batch_size=8)
    plain = srv.serve(ds.queries)
    armed = srv.serve(ds.queries, ServeConfig(faults=FaultPlan()))
    assert [vars(a) for a in plain.serve.records] == \
        [vars(b) for b in armed.serve.records]
    assert "resilience" not in plain.serve.meta
    assert np.array_equal(plain.ids, armed.ids)


def _mk_sharded(ds, n_gpus=4):
    return ShardedServer(
        ds.base,
        lambda pts: build_cagra(pts, graph_degree=12, metric=ds.metric),
        n_gpus=n_gpus, metric=ds.metric, k=8, batch_size=8,
    )


def test_sharded_parity(ds):
    srv = _mk_sharded(ds, n_gpus=2)
    plain = srv.serve(ds.queries)
    armed = srv.serve(ds.queries, ServeConfig(faults=FaultPlan()))
    assert [vars(a) for a in plain.serve.records] == \
        [vars(b) for b in armed.serve.records]
    assert np.array_equal(plain.ids, armed.ids)
    assert np.array_equal(plain.dists, armed.dists)


def test_sharded_quorum_survives_kill_and_hangs(ds, tmp_path):
    """The acceptance scenario: 1 of 4 shards dies, 2 slots hang — the
    serve completes, >=99% of queries are answered, partials are flagged,
    and the counters land in both the report meta and the Prometheus
    exposition."""
    from repro.telemetry import Telemetry, write_metrics

    srv = _mk_sharded(ds, n_gpus=4)
    plan = FaultPlan(
        seed=42,
        slot_faults=(SlotFault(0, "hang", shard=0), SlotFault(1, "hang", shard=1)),
        shard_faults=(ShardFault(3, "kill", at_us=60.0),),
    )
    policy = ResiliencePolicy(watchdog_budget_us=200.0)
    tel = Telemetry()
    rep = srv.serve(ds.queries, ServeConfig(faults=plan, resilience=policy,
                                            telemetry=tel))
    n = ds.queries.shape[0]
    meta = rep.serve.meta
    res = meta["resilience"]
    assert len(rep.serve.records) + meta["failed"] + meta["dropped"] == n
    assert len(rep.serve.records) >= 0.99 * n
    assert res["watchdog_kills"] >= 2
    assert res["faults_injected"]["shard_kill"] == 1
    partials = [r for r in rep.serve.records if r.partial]
    assert len(partials) == res["partial_answers"] > 0
    assert meta["est_recall_penalty"] > 0.0
    assert meta["quorum_k"] == 3
    # partial answers still return real neighbors from the live shards
    assert (rep.ids[:, 0] >= 0).all()
    # the same counters are visible through the metrics exposition
    out = tmp_path / "chaos.prom"
    write_metrics(tel, str(out))
    text = out.read_text()
    for counter in ("algas_watchdog_kills_total", "algas_partial_answers_total",
                    "algas_faults_injected_total"):
        assert counter in text


def test_sharded_slow_shard_stretches_latency(ds):
    srv = _mk_sharded(ds, n_gpus=2)
    healthy = srv.serve(ds.queries)
    plan = FaultPlan(shard_faults=(ShardFault(0, "slow", factor=6.0),))
    # Generous straggler budget: the slow shard is still waited for, so
    # results stay exact but latency is gated on it.
    slow = srv.serve(ds.queries, ServeConfig(
        faults=plan, resilience=ResiliencePolicy(straggler_budget_us=1e6)))
    assert slow.serve.mean_latency_us() > healthy.serve.mean_latency_us()
    assert np.array_equal(healthy.ids, slow.ids)
    assert not any(r.partial for r in slow.serve.records)


def test_sharded_tight_budget_sheds_straggler(ds):
    plan = FaultPlan(shard_faults=(ShardFault(0, "slow", factor=50.0),))
    srv = _mk_sharded(ds, n_gpus=2)
    rep = srv.serve(ds.queries, ServeConfig(
        faults=plan,
        resilience=ResiliencePolicy(straggler_budget_us=5.0, quorum_k=1)))
    partials = [r for r in rep.serve.records if r.partial]
    assert partials, "tight budget should shed the slowed shard"
    assert rep.serve.meta["est_recall_penalty"] > 0.0


# ----------------------------------------------------------------- chaos runs
def test_load_plan_json_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = named_plan("stragglers")
    path.write_text(plan.to_json())
    assert load_plan(str(path)) == plan
    assert load_plan("smoke") == named_plan("smoke")
    assert load_plan(plan) is plan


def test_run_chaos_single_mode():
    result = run_chaos(
        "slot-hangs", mode="single", n=1200, n_queries=24, batch_size=4,
        degree=8, policy=ResiliencePolicy(watchdog_budget_us=200.0),
    )
    assert result.passed(0.99)
    assert result.answered == 24 and result.failed == 0
    assert result.resilience["watchdog_kills"] == 2
    assert result.retried == 2
    assert "watchdog" in result.summary()


def test_run_chaos_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_chaos("none", mode="warp")

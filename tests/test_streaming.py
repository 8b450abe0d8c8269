"""Serve-while-update: determinism, SLO grading, compaction invariants.

Covers the streaming subsystem end to end (docs/robustness.md):

* :class:`~repro.streaming.UpdateStream` / wave materialization and the
  ``Spike`` arrival process (round-trips, determinism, storm tagging);
* :func:`~repro.streaming.serve_while_update` — the property suite pins
  byte-identical reports for identical seeds, and the invariant tests pin
  the degradation SLOs across a compaction boundary: no tombstoned vertex
  in any answer, no duplicated ids in a top-k row, no lost queries;
* :func:`~repro.core.serving.merge_reports` stitching epochs — update-wave
  work must land under ``meta["update"]``, never in the query latency
  stream (the rest of the report fan-in is ``tests/test_census.py``'s);
* the update-fault plan plumbing and the sharded admission path.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.streaming.runner as runner
from repro.core import ALGASSystem
from repro.core.serving import QueryRecord, ServeReport, merge_reports
from repro.data.synthetic import latent_mixture
from repro.data import load_dataset
from repro.data.workload import ArrivalProcess, Poisson, QueryEvent, Spike, TrafficSpec
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.resilience import FaultPlan, UpdateFault, named_plan
from repro.streaming import (
    DegradationSLO,
    UpdateStorm,
    UpdateStream,
    grade_stream,
    serve_while_update,
)

from .golden import make_streams
from .oracles import scalar_dynamic_search

BASE = latent_mixture(400, 16, intrinsic_dim=8, seed=21)
QUERIES = latent_mixture(24, 16, intrinsic_dim=8, seed=22)


def fresh_graph(ef: int = 48, **kw) -> DynamicGraph:
    return DynamicGraph(
        BASE,
        build_cagra(BASE, graph_degree=10, seed=0),
        max_degree=12,
        ef=ef,
        **kw,
    )


# ---------------------------------------------------------------- UpdateStream
def test_update_stream_round_trip_and_waves():
    stream = UpdateStream(
        insert_qps=2000.0, delete_qps=500.0, wave_us=5_000.0,
        storms=(UpdateStorm(12_000.0, n_inserts=50, n_deletes=10),), seed=3,
    )
    assert UpdateStream.from_json(stream.to_json()) == stream
    w1 = stream.waves(40_000.0)
    w2 = stream.waves(40_000.0)
    assert w1 == w2  # seeded
    assert [w for w in w1 if w.storm] == [
        w for w in w1 if w.at_us == 12_000.0 and w.n_inserts == 50
    ]
    assert all(w.at_us <= 40_000.0 for w in w1)
    assert all(a.at_us <= b.at_us for a, b in zip(w1, w1[1:]))
    # Different seed, different steady waves.
    assert stream.waves(40_000.0, seed=99) != w1


def test_update_stream_with_storm_merges_sorted():
    s = UpdateStream(storms=(UpdateStorm(20_000.0, n_inserts=5),))
    s2 = s.with_storm(UpdateStorm(10_000.0, n_deletes=3))
    assert [x.at_us for x in s2.storms] == [10_000.0, 20_000.0]
    assert s.storms != s2.storms  # frozen original untouched


NAN, INF = float("nan"), float("inf")

#: case -> (the field the error must name, the call that must refuse it)
NON_FINITE = {
    "insert_qps-nan": ("insert_qps", lambda: UpdateStream(insert_qps=NAN)),
    "delete_qps-inf": ("delete_qps", lambda: UpdateStream(delete_qps=INF)),
    "wave_us-nan": ("wave_us", lambda: UpdateStream(wave_us=NAN)),
    "wave_us-inf": ("wave_us", lambda: UpdateStream(wave_us=INF)),
    "storm-at_us-nan": ("at_us", lambda: UpdateStorm(NAN, n_inserts=1)),
    "max_recall_drop-nan": (
        "max_recall_drop", lambda: DegradationSLO(max_recall_drop=NAN)),
    "p99_ceiling_us-nan": (
        "p99_ceiling_us", lambda: DegradationSLO(p99_ceiling_us=NAN)),
    "compact_threshold-nan": (
        "compact_threshold", lambda: run_stream(compact_threshold=NAN)),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_stream_inputs_refuse_non_finite(case):
    """Each used to pass: a NaN rate or window made zero waves, a NaN storm
    was dropped by ``waves()``, an infinite rate died inside numpy's
    Poisson draw, a NaN SLO failed every verdict and a NaN threshold never
    compacted."""
    field, make = NON_FINITE[case]
    with pytest.raises(ValueError, match=field):
        make()


def test_update_stream_validation():
    with pytest.raises(ValueError):
        UpdateStream(insert_qps=-1.0)
    with pytest.raises(ValueError):
        UpdateStream(wave_us=0.0)
    with pytest.raises(ValueError):
        UpdateStorm(1000.0)  # no inserts, no deletes


def test_spike_process_round_trip_and_determinism():
    sp = Spike(base_qps=1000.0, spikes=((10_000.0, 8, 2_000.0),), seed=4)
    assert ArrivalProcess.from_json(sp.to_json()) == sp
    assert ArrivalProcess.parse("spike:1000:10000:8") == Spike(
        base_qps=1000.0, spikes=((10_000.0, 8, 10_000.0),)
    )
    ev1, ev2 = sp.events(32), sp.events(32)
    assert [e.arrival_us for e in ev1] == [e.arrival_us for e in ev2]
    # The deterministic burst lands regardless of the baseline draw.
    in_burst = [e for e in ev1 if 10_000.0 <= e.arrival_us < 12_000.0]
    assert len(in_burst) >= 8


# ------------------------------------------------------------------ fault plan
def test_update_fault_plan_round_trip():
    plan = FaultPlan(
        seed=5,
        update_faults=(
            UpdateFault("storm", at_us=10_000.0, n_inserts=100, n_deletes=20),
            UpdateFault("compaction_stall", factor=3.0),
            UpdateFault("codebook_drift", at_us=5_000.0, magnitude=1.5),
        ),
    )
    back = FaultPlan.from_json(plan.to_json())
    assert back == plan
    assert back.update_fault("storm").n_inserts == 100
    assert back.update_fault("compaction_stall").factor == 3.0
    assert plan.update_fault("nope" if False else "storm") is not None
    # Shard views carry only engine-consumable faults.
    assert back.for_shard(0).update_faults == ()
    named = named_plan("update-storm")
    assert named.update_fault("storm").n_inserts == 5000
    assert named.update_fault("compaction_stall").factor == 6.0


# ----------------------------------------------------- serve-while-update runs
def run_stream(stream_seed=3, workload_seed=1, faults=None, **kw):
    dyn = fresh_graph()
    stream = UpdateStream(
        insert_qps=4000.0, delete_qps=2000.0, wave_us=4_000.0,
        seed=stream_seed,
    )
    kw.setdefault("k", 8)
    kw.setdefault("slots", 4)
    return serve_while_update(
        dyn, QUERIES, stream,
        workload=Poisson(rate_qps=2000.0, seed=workload_seed),
        faults=faults, **kw,
    )


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_serve_while_update_deterministic(stream_seed, workload_seed):
    """Same seeds => byte-identical StreamReport (records, waves, meta)."""
    a = run_stream(stream_seed, workload_seed)
    b = run_stream(stream_seed, workload_seed)
    assert a.to_json() == b.to_json()


def test_compaction_boundary_invariants():
    """Across forced compactions: no tombstone answered, no duplicate ids
    in a top-k row, no query lost, every event answered."""
    plan = FaultPlan(
        seed=1,
        update_faults=(
            UpdateFault("storm", at_us=4_000.0, n_inserts=200, n_deletes=80),
            UpdateFault("compaction_stall", factor=6.0),
        ),
    )
    rep = run_stream(faults=plan, compact_threshold=0.02)
    assert sum(1 for w in rep.waves if w["compacted"]) >= 1
    assert rep.tombstoned_answers == 0
    assert rep.duplicate_rows == 0
    assert rep.lost == 0
    assert rep.answered == rep.n_events
    assert rep.verdict()["tombstoned_answers"]["ok"]
    # The storm wave is tagged and the stall stretched its barrier.
    storm_waves = [w for w in rep.waves if w["storm"]]
    assert storm_waves and storm_waves[0]["n_inserts"] == 200


@pytest.mark.parametrize("kw", [
    dict(precision="int8"), dict(rerank_mult=4), dict(insert_pool=BASE[:8]),
], ids=["precision", "rerank_mult", "insert_pool"])
def test_serve_while_update_takes_no_precision_or_pool(kw):
    """Reads traverse at the graph's constructor precision; the stream draws
    its own insert vectors."""
    with pytest.raises(TypeError):
        run_stream(**kw)


def test_integrity_checks_count_injected_violations(monkeypatch):
    """The per-epoch answer checks count exactly what they name: rows that
    repeat an id, and answers naming a deleted vertex."""
    dyn = fresh_graph()
    real = dyn.search_batch
    injected = {"dup": 0, "dead": 0}

    def corrupt(*args, **kw):
        # Every search on the live graph is an epoch's: the frozen-graph
        # oracle searches a snapshot, when the report is graded.
        assert kw.get("record_trace")
        ids, dists, traces = real(*args, **kw)
        ids = ids.copy()
        ids[::2, 1] = ids[::2, 0]
        injected["dup"] += ids[::2].shape[0]
        dead = np.flatnonzero(~dyn._alive[: dyn.n_total])
        if dead.size:
            ids[-1, -1] = dead[0]
            injected["dead"] += 1
        return ids, dists, traces

    monkeypatch.setattr(dyn, "search_batch", corrupt)
    stream = UpdateStream(insert_qps=4000.0, delete_qps=2000.0,
                          wave_us=4_000.0, seed=3)
    rep = serve_while_update(dyn, QUERIES, stream,
                             workload=Poisson(rate_qps=2000.0, seed=1),
                             k=8, slots=4)
    assert injected["dead"] > 0
    assert rep.duplicate_rows == injected["dup"]
    assert rep.tombstoned_answers == injected["dead"]


def test_storm_past_the_traffic_horizon_raises():
    """A storm the traffic never reaches used to vanish: 24 events at
    2 000 q/s end near 12 ms, the named plan's storm lands at 30 ms, and the
    report read PASS with no storm wave."""
    with pytest.raises(ValueError, match=r"storm at_us=30000 .* horizon \d"):
        serve_while_update(
            fresh_graph(), QUERIES, UpdateStream(
                insert_qps=4000.0, delete_qps=2000.0, wave_us=4_000.0, seed=3),
            workload=Poisson(rate_qps=2000.0, seed=1), k=8, slots=4,
            faults=named_plan("update-storm"))


def test_steady_waves_end_before_the_horizon():
    """The window the horizon cuts short is dropped, not clamped to it, and
    so is a window that ends on the horizon."""
    stream = UpdateStream(insert_qps=2000.0, delete_qps=500.0,
                          wave_us=5_000.0, seed=3)
    cut = stream.waves(42_000.0)
    assert [w.at_us for w in cut] == [5_000.0 * i for i in range(1, 9)]
    assert stream.waves(45_000.0) == cut
    assert stream.waves(45_000.001)[-1].at_us == 45_000.0


def test_no_wave_lands_after_the_last_read():
    """``stream_churn``'s shape at seed 1 (10k x 128, CAGRA-12, ef 64, 1 024
    arrivals uniform over 1 024 / 3 000 s): every wave lands before the last
    arrival, so each changes what some read sees.  With the last window
    clamped to the horizon (last arrival + 1 us) the call applied a 35th
    wave after every read, and that wave ran the call's second compaction."""
    seed, n_events, rate = 1, 1024, 3000.0
    ds = load_dataset("sift1m-mini", n=10_000, n_queries=4 * n_events,
                      gt_k=10, seed=0)
    pick = np.random.default_rng(seed).choice(
        ds.queries.shape[0], size=n_events, replace=False)
    times = np.sort(np.random.default_rng(seed).uniform(
        0.0, n_events / rate * 1e6, n_events))
    dyn = DynamicGraph(
        ds.base, build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=0),
        metric=ds.metric, ef=64)
    rep = serve_while_update(
        dyn, ds.queries[pick],
        UpdateStream(insert_qps=rate, delete_qps=rate, wave_us=10_000.0, seed=seed),
        workload=[QueryEvent(i, float(t)) for i, t in enumerate(times)],
        n_queries=n_events, k=10, slots=8)
    assert all(w["at_us"] < times[-1] for w in rep.waves)
    assert len(rep.waves) == 34
    assert sum(1 for w in rep.waves if w["compacted"]) == 1


def test_stream_reads_run_the_tuned_split(monkeypatch):
    """Every search of the call runs the split an ALGASSystem of the same
    slots serves with (the tuner's N_parallel): the reads, the fused and the
    unfused insert searches and the grader's t=0 copy; the priced CTAs
    carry it too."""
    splits = []
    real = DynamicGraph.search_batch

    def spy(self, queries, k, *args, **kw):
        out = real(self, queries, k, *args, **kw)
        splits.append(kw.get("n_ctas", 1))
        if out[2] is not None:
            assert out[2].n_ctas == kw["n_ctas"]
        return out

    inserts = []
    real_insert = DynamicGraph.insert_batch
    monkeypatch.setattr(DynamicGraph, "search_batch", spy)
    monkeypatch.setattr(DynamicGraph, "insert_batch", lambda self, pts, **kw: (
        inserts.append(kw.get("n_ctas", 1)), real_insert(self, pts, **kw))[1])
    tuned = ALGASSystem(BASE, build_cagra(BASE, graph_degree=10, seed=0), k=8,
                        l_total=48, batch_size=4).n_parallel
    rep = run_stream()
    rep.stream_recall  # grade: the t=0 copy searches too
    assert tuned == 8 and rep.serve.n_cta_slots == 4 * tuned
    assert set(splits) == set(inserts) == {tuned} and len(splits) > len(inserts) > 1


def test_split_stream_on_a_tiny_graph_pads_without_duplicates():
    """k above the live count, and fewer live vertices than 2 entries for
    each of the 8 CTAs, through the whole call: no tombstoned answer, no
    repeated id, every read answered."""
    pts = BASE[:24]
    dyn = DynamicGraph(pts, build_cagra(pts, graph_degree=6, seed=0), max_degree=8)
    stream = UpdateStream(delete_qps=2000.0, wave_us=2_000.0, seed=5)
    rep = serve_while_update(dyn, QUERIES, stream, k=16, slots=4,
                             workload=Poisson(rate_qps=2000.0, seed=1))
    assert dyn.n_alive < 16 and rep.n_events == QUERIES.shape[0]
    assert (rep.tombstoned_answers, rep.duplicate_rows, rep.lost) == (0, 0, 0)
    assert rep.answered == rep.n_events


@pytest.mark.parametrize("name", ["float32", "codebook_drift-int8"])
def test_grading_runs_once_after_the_call(monkeypatch, name):
    """The call runs no oracle search and no brute-force kNN; the first read
    of a graded field runs the oracle plus one kNN per epoch, later reads
    none.  Mutating the graph after the call moves no graded value: the
    oracle searches a t=0 snapshot (int8: with the codec fitted at t=0, not
    the live one the mutation re-trains)."""
    expected = make_streams.run(name)[0].to_json()  # graded before mutation
    calls = {"knn": 0, "untraced": 0}
    knn, search = runner.exact_knn, DynamicGraph.search_batch

    def counted_knn(*args, **kw):
        calls["knn"] += 1
        return knn(*args, **kw)

    def counted_search(self, *args, **kw):
        calls["untraced"] += not kw.get("record_trace")
        return search(self, *args, **kw)

    monkeypatch.setattr(runner, "exact_knn", counted_knn)
    monkeypatch.setattr(DynamicGraph, "search_batch", counted_search)
    rep, dyn = make_streams.run(name)
    assert calls == {"knn": 0, "untraced": 0}

    retrains = dyn.codec_retrains
    dyn.insert_batch(QUERIES[:8] + 10.0 * QUERIES.std(axis=0))
    dyn.delete_batch(dyn.alive_ids()[:40])
    dyn.compact()
    if dyn.precision == "int8":
        assert dyn.codec_retrains > retrains
    assert calls == {"knn": 0, "untraced": 0}

    rep.stream_recall
    assert calls == {"knn": 1 + len(rep.epochs), "untraced": 1}
    rep.oracle_recall, rep.verdict(), grade_stream(rep)
    assert rep.to_json() == expected
    assert calls == {"knn": 1 + len(rep.epochs), "untraced": 1}


def test_degradation_slo_verdict():
    rep = run_stream()
    v = rep.verdict()
    assert set(v) >= {"answered", "recall_drop", "tombstoned_answers",
                      "duplicate_rows", "lost"}
    assert rep.passed == all(c["ok"] for c in v.values())
    # A p99 ceiling of ~0 must fail the run.
    tight = run_stream(slo=DegradationSLO(p99_ceiling_us=1e-3))
    assert not tight.passed
    assert not tight.verdict()["p99_e2e_us"]["ok"]


def test_wave_barrier_lands_in_e2e_not_service():
    """Queries arriving during a wave wait for it: the wait shows up in
    e2e latency (true arrival restored) but never in service latency or
    the gpu busy accounting (the satellite-6 rule)."""
    plan = FaultPlan(
        seed=2,
        update_faults=(UpdateFault("storm", at_us=2_000.0, n_inserts=400),),
    )
    rep = run_stream(faults=plan)
    upd = rep.serve.meta["update"]
    assert upd["update_busy_us"] > 0
    assert upd["n_inserts"] >= 400
    storm = next(w for w in rep.waves if w["storm"])
    blocked = [
        r for r in rep.serve.records
        if storm["start_us"] <= r.arrival_us < storm["start_us"] + storm["duration_us"]
    ]
    assert blocked, "storm must overlap some arrivals for this test"
    for r in blocked:
        # dispatched only after the barrier lifted
        assert r.dispatch_us >= storm["start_us"] + storm["duration_us"] - 1e-6
        assert r.e2e_latency_us >= r.service_latency_us
    # Query-side GPU accounting equals the sum of per-epoch busy time;
    # wave work is only in meta["update"].
    assert rep.serve.gpu_cta_busy_us < upd["update_busy_us"] + rep.serve.gpu_cta_busy_us


def test_runner_admission_spec_dropped_not_lost():
    dyn = fresh_graph()
    stream = UpdateStream(insert_qps=2000.0, wave_us=5_000.0, seed=3)
    spec = TrafficSpec(
        Poisson(rate_qps=50_000.0, seed=1), deadline_us=30.0
    )
    rep = serve_while_update(dyn, QUERIES, stream, workload=spec, k=8, slots=2)
    assert rep.answered + rep.dropped == rep.n_events
    assert rep.lost == 0


# ------------------------------------- golden streams (frozen at b1b6bf7)
@pytest.fixture(scope="module")
def golden_streams():
    return json.loads(make_streams.FIXTURE.read_text())


def test_stream_fixture_covers_every_scenario(golden_streams):
    assert sorted(golden_streams) == sorted(make_streams.SCENARIOS)


@pytest.mark.parametrize("name", sorted(make_streams.SCENARIOS))
def test_streams_reproduce_the_frozen_digests(golden_streams, name):
    """Report JSON and final adjacency / degrees / liveness of every
    scenario equal what the two-run epoch produced: the fused epoch, the
    sub-wave / codec / capacity fallbacks, cosine, delete-only waves and
    epochs without reads."""
    assert make_streams.digests(*make_streams.run(name)) == golden_streams[name]


# --------------------------------------------------------- cosine unit rows
def test_cosine_stream_inserts_unit_rows():
    """Every cosine kernel computes ``1 - dot`` over unit rows: the drawn
    inserts (here under a drift shift too) must be normalized before they
    are staged."""
    plan = FaultPlan(seed=1, update_faults=(
        UpdateFault("codebook_drift", at_us=8_000.0, magnitude=3.0),))
    rep, dyn = make_streams.run("cosine")
    assert sum(w["n_inserts"] for w in rep.waves) > 0
    base, queries = make_streams.corpus("cosine")
    drifted = DynamicGraph(base, build_cagra(base, graph_degree=10,
                                             metric="cosine", seed=0),
                           metric="cosine", max_degree=12, ef=48)
    serve_while_update(drifted, queries, UpdateStream(
        insert_qps=4000.0, delete_qps=2000.0, wave_us=4_000.0, seed=3),
        workload=Poisson(rate_qps=2000.0, seed=1), n_queries=96, k=8,
        slots=4, faults=plan)
    for d in (dyn, drifted):
        assert d.n_total > base.shape[0]
        norms = np.linalg.norm(d._pts[: d.n_total], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5, norms.min()


@pytest.mark.parametrize("where", ["constructor", "insert", "pending"])
def test_cosine_graph_refuses_non_unit_rows(where):
    base, queries = make_streams.corpus("cosine")
    graph = build_cagra(base, graph_degree=10, metric="cosine", seed=0)
    bad = queries[:4].copy()
    bad[2] *= 1.5
    with pytest.raises(ValueError, match=r"unit-norm under cosine: row 2 "
                                         r"has norm 1\.5"):
        if where == "constructor":
            pts = base.copy()
            pts[2] *= 1.5
            DynamicGraph(pts, graph, metric="cosine")
        elif where == "insert":
            DynamicGraph(base, graph, metric="cosine").insert_batch(bad)
        else:
            DynamicGraph(base, graph, metric="cosine").search_batch(
                queries[:2], 4, pending_inserts=bad)
    # l2 has no such constraint
    DynamicGraph(base, graph).insert_batch(bad)


# ------------------------------------------------------- report merge account
def _mk_report(qids, arrival, busy, meta=None):
    recs = [
        QueryRecord(query_id=q, arrival_us=arrival, dispatch_us=arrival + 1,
                    gpu_start_us=arrival + 2, gpu_end_us=arrival + 5,
                    detected_us=arrival + 6, complete_us=arrival + 7)
        for q in qids
    ]
    return ServeReport(records=recs, makespan_us=0.0, gpu_cta_busy_us=busy,
                       n_cta_slots=4, host_busy_us=1.0,
                       meta={"dropped": 0, "dropped_ids": [], **(meta or {})})


def test_merge_serve_reports_accounting():
    """A stream's epochs stitched on one clock: query work only, the update
    meta as handed over, the last barrier as the makespan floor."""
    a = _mk_report([2, 0], 100.0, 30.0)
    b = _mk_report([1], 500.0, 20.0, meta={"dropped": 1, "dropped_ids": [9]})
    update = {"update_busy_us": 1e6, "n_waves": 3}
    records = sorted((r for p in (a, b) for r in p.records), key=lambda r: r.query_id)
    merged = merge_reports([a, b], records, 8, {"n_epochs": 2, "update": update},
                           makespan_us=900.0)
    assert [r.query_id for r in merged.records] == [0, 1, 2]
    assert merged.gpu_cta_busy_us == 50.0  # query work only — never waves
    assert merged.host_busy_us == 2.0
    assert merged.makespan_us == 900.0  # the barrier outlasts every record
    assert merged.n_cta_slots == 8
    assert merged.meta["update"] == update and merged.meta["n_epochs"] == 2
    assert merged.meta["dropped"] == 1 and merged.meta["dropped_ids"] == [9]
    assert not {"shed", "shed_ids", "max_queue_depth", "resilience", "failed",
                "failed_ids"} & merged.meta.keys()
    # Latency percentiles come from records alone: the 1-second wave under
    # meta["update"] must not move them.
    assert merged.percentile_latency_us(99) == pytest.approx(6.0)
    assert merge_reports([a, b], records, 8, {}).makespan_us == 507.0
    empty = merge_reports([], [], 8, {"n_epochs": 0}, makespan_us=42.0)
    assert empty.makespan_us == 42.0 and empty.meta["dropped_ids"] == []


# ------------------------------------- dynamic search vs its scalar oracle
def test_dynamic_search_backend_parity_and_freeze_invalidation():
    dyn = fresh_graph(ef=64)
    q = QUERIES[0]
    ids_s, _ = scalar_dynamic_search(dyn, q, 8)
    ids_v, _ = dyn.search(q, 8)
    assert set(ids_s.tolist()) == set(ids_v.tolist())
    ids_q, _ = fresh_graph(ef=64, precision="int8", rerank_mult=4).search(q, 8)
    assert len(set(ids_q.tolist())) == len(ids_q)
    with pytest.raises(TypeError, match="backend"):
        dyn.search(q, 8, backend="scalar")
    # freeze() caches until a mutation invalidates it.
    f1 = dyn.freeze()
    assert dyn.freeze() is f1
    v0 = dyn.version
    dyn.insert(QUERIES[1])
    assert dyn.version > v0
    f2 = dyn.freeze()
    assert f2 is not f1
    assert f2[0].shape[0] == f1[0].shape[0] + 1


# ------------------------------------------------- sharded admission (sat 2)
def test_sharded_server_accepts_admission_spec():
    from repro.core import ServeConfig, ShardedServer

    server = ShardedServer(
        BASE,
        lambda pts: build_cagra(pts, graph_degree=8, seed=0),
        n_gpus=2, k=8, batch_size=4, seed=0,
    )
    spec = TrafficSpec(Poisson(rate_qps=1_000_000.0, seed=0),
                       deadline_us=0.5, max_queue_depth=2)
    rep = server.serve(QUERIES, ServeConfig(workload=spec))
    meta = rep.serve.meta
    n = QUERIES.shape[0]
    # The documented census: every query is answered or dropped, and a
    # shed query is a drop (docs/load_testing.md).
    assert len(rep.serve.records) + meta["dropped"] == n
    assert set(meta["shed_ids"]) <= set(meta["dropped_ids"])
    assert meta["dropped"] > 0  # the point of the spec
    # Shed/dropped queries are an admission decision, not shard failures.
    assert meta.get("failed", 0) == 0
    # Unconstrained specs keep the fast path.
    rep2 = server.serve(QUERIES, ServeConfig(workload=Poisson(rate_qps=500.0)))
    assert len(rep2.serve.records) == n

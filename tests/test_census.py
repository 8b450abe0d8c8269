"""The one report fan-in: :func:`~repro.core.serving.merge_reports`.

A stream stitches its epoch reports, ``ReplicatedServer`` its replicas'
and ``ShardedServer`` its shards' through one census
(docs/load_testing.md, "Admission control semantics"):

* a query with a record is in no id list, and ``shed_ids ⊆ dropped_ids``;
* ``dropped`` is always present; ``shed`` / ``shed_ids`` /
  ``max_queue_depth`` only when some part armed queue-depth admission;
  ``resilience`` / ``failed`` / ``failed_ids`` only when some part or the
  fan-in kept a defense ledger.

The unit cases feed hand-built parts; the contract test serves every
entry point healthy, under an admission ``TrafficSpec`` and under the
``slot-hangs`` plan, and checks each report against the parts it merged.
"""

import pytest

import repro.core.cluster as cluster
import repro.streaming.runner as runner
from repro.core import ServeConfig
from repro.core.serving import QueryRecord, ServeReport, merge_reports
from repro.data.synthetic import latent_mixture
from repro.data.workload import Poisson, TrafficSpec
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.resilience import ResilienceStats, merge_resilience_meta, named_plan
from repro.streaming import UpdateStream, serve_while_update

from .golden import make_serves

SHED_KEYS = {"shed", "shed_ids", "max_queue_depth"}
LEDGER_KEYS = {"resilience", "failed", "failed_ids"}


def _rec(qid: int, arrival: float) -> QueryRecord:
    return QueryRecord(query_id=qid, arrival_us=arrival, dispatch_us=arrival + 1,
                       gpu_start_us=arrival + 2, gpu_end_us=arrival + 5,
                       detected_us=arrival + 6, complete_us=arrival + 7)


def _part(records, busy=10.0, meta=None) -> ServeReport:
    return ServeReport(records=records, makespan_us=0.0, gpu_cta_busy_us=busy,
                       n_cta_slots=4, host_busy_us=1.0,
                       meta={"dropped": 0, "dropped_ids": [], **(meta or {})})


def _ledger(failed_ids) -> dict:
    stats = ResilienceStats(watchdog_kills=len(failed_ids))
    stats.failed_ids.extend(failed_ids)
    return stats.to_meta()


# --------------------------------------------------------------- unit cases
def test_merge_reports():
    # The stream case is test_streaming's test_merge_serve_reports_accounting
    # and the replicated one test_cluster's
    # test_merged_report_aggregates_dropped_meta.
    # Shards: a query one shard shed and another answered lands in no
    # bucket; one no shard answered is shed and dropped, once.
    admission = {"max_queue_depth": 2}
    s0 = _part([_rec(0, 0.0)], meta={**admission, "dropped": 2, "dropped_ids": [1, 2],
                                     "shed": 2, "shed_ids": [1, 2]})
    s1 = _part([_rec(1, 0.0)], meta={**admission, "dropped": 2, "dropped_ids": [0, 2],
                                     "shed": 1, "shed_ids": [2]})
    records = [_rec(0, 0.0), _rec(1, 0.0)]  # the fan-in's folded records
    rep = merge_reports([s0, s1], records, 8, {"mode": "sharded"},
                        host_busy_us=0.5)
    assert rep.meta["dropped_ids"] == [2] and rep.meta["dropped"] == 1
    assert rep.meta["shed_ids"] == [2] and rep.meta["shed"] == 1
    assert rep.meta["max_queue_depth"] == 2
    assert rep.host_busy_us == 2.5  # the parts' host work plus the merges
    assert not LEDGER_KEYS & rep.meta.keys()


# --------------------------------------------------------- census contract
def _assert_census(serve: ServeReport, parts: list[ServeReport], ledger: bool,
                   n: int) -> None:
    """The one census over ``serve``; ``ledger``: the fan-in kept its own."""
    meta = serve.meta
    answered = {r.query_id for r in serve.records}
    assert len(answered) == len(serve.records)
    dropped = set(meta["dropped_ids"])
    assert meta["dropped"] == len(dropped)
    assert set(meta.get("shed_ids", ())) <= dropped
    for key in ("dropped_ids", "shed_ids", "failed_ids"):
        assert answered.isdisjoint(meta.get(key, ())), key
    armed = any("max_queue_depth" in p.meta for p in parts)
    assert (SHED_KEYS <= meta.keys()) is armed
    assert SHED_KEYS.isdisjoint(meta) is not armed
    kept = ledger or any("resilience" in p.meta for p in parts)
    assert (LEDGER_KEYS <= meta.keys()) is kept
    assert LEDGER_KEYS.isdisjoint(meta) is not kept
    if kept:
        assert meta["failed"] == len(meta["failed_ids"])
        assert meta["resilience"]["failed_ids"] == meta["failed_ids"]
    accounted = len(answered) + len(dropped) + len(set(meta.get("failed_ids", ())) - dropped)
    assert accounted <= n


SCENARIOS = {
    "healthy": {},
    "admission": dict(workload=make_serves.ADMISSION),
    "slot-hangs": dict(faults=named_plan("slot-hangs")),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", ["algas", "replicated", "sharded"])
def test_serve_census_contract(kind, scenario, monkeypatch):
    parts: list[ServeReport] = []
    if kind == "replicated":
        task = cluster._replica_engine_task

        def spy(payload):
            part, wtel = task(payload)
            parts.append(part)
            return part, wtel

        monkeypatch.setattr(cluster, "_replica_engine_task", spy)
    elif kind == "sharded":
        task = cluster._shard_serve_task

        def spy(payload):
            out = task(payload)
            parts.append(out[2])
            return out

        monkeypatch.setattr(cluster, "_shard_serve_task", spy)
    server = make_serves.make_server(kind)
    queries = make_serves.corpus()[0].queries
    try:
        serve = server.serve(queries, ServeConfig(**SCENARIOS[scenario])).serve
    finally:
        if kind == "sharded":
            server.close()
    if kind == "algas":
        parts = [serve]  # one engine: its report is its own census
    # A cluster fan-in keeps a ledger under faults; a sharded one also
    # under admission, which it answers from a quorum.
    ledger = kind != "algas" and (
        scenario == "slot-hangs" or (kind == "sharded" and scenario == "admission"))
    _assert_census(serve, parts, ledger, len(queries))
    if kind == "sharded":
        answered = {r.query_id for r in serve.records}
        shed = {i for p in parts for i in p.meta.get("shed_ids", ())}
        assert serve.meta.get("shed_ids", []) == sorted(shed - answered)
    if scenario == "admission":
        assert serve.meta["shed"] > 0  # the spec sheds on every entry point


def _stream(monkeypatch, n_queries: int, wave_us: float = 4_000.0, **kw):
    parts: list[ServeReport] = []
    admit = runner._admit

    def spy(engine, jobs, spec):
        rep = admit(engine, jobs, spec)
        parts.append(rep)
        return rep

    monkeypatch.setattr(runner, "_admit", spy)
    base = latent_mixture(400, 16, intrinsic_dim=8, seed=21)
    queries = latent_mixture(24, 16, intrinsic_dim=8, seed=22)
    dyn = DynamicGraph(base, build_cagra(base, graph_degree=10, seed=0),
                       max_degree=12, ef=48)
    stream = UpdateStream(insert_qps=4000.0, delete_qps=2000.0, wave_us=wave_us,
                          seed=3)
    rep = serve_while_update(dyn, queries, stream, n_queries=n_queries, k=8,
                             slots=4, **kw)
    return rep, parts


STREAM_SCENARIOS = {
    "healthy": dict(workload=Poisson(rate_qps=3_000.0, seed=1)),
    "admission": dict(workload=TrafficSpec(
        Poisson(rate_qps=50_000.0, seed=1), deadline_us=20.0, max_queue_depth=1),
        wave_us=500.0),
    "slot-hangs": dict(workload=Poisson(rate_qps=3_000.0, seed=1),
                       faults=named_plan("slot-hangs")),
}


@pytest.mark.parametrize("scenario", sorted(STREAM_SCENARIOS))
def test_stream_census_contract(scenario, monkeypatch):
    rep, parts = _stream(monkeypatch, 64, **STREAM_SCENARIOS[scenario])
    serve = rep.serve
    assert len(parts) == serve.meta["n_epochs"] > 1
    _assert_census(serve, parts, False, rep.n_events)
    # The epochs' defense ledgers survive the stitch.
    assert serve.meta.get("resilience") == merge_resilience_meta(
        [p.meta.get("resilience") for p in parts])
    if scenario == "slot-hangs":
        assert serve.meta["resilience"]["watchdog_kills"] > 0
        assert "watchdog" in rep.summary()
    if scenario == "admission":
        assert serve.meta["shed"] > 0
        assert serve.meta["max_queue_depth"] == 1
    # The report's counts are read off the merged serve report.
    assert (rep.answered, rep.dropped, rep.shed) == (
        len(serve.records), serve.meta["dropped"], serve.meta.get("shed", 0))
    assert rep.answered + rep.dropped + rep.lost == rep.n_events


def test_zero_event_stream_reports_every_cta_slot(monkeypatch):
    full, _ = _stream(monkeypatch, 64, workload=Poisson(rate_qps=3_000.0, seed=1))
    empty, parts = _stream(monkeypatch, 0)
    assert parts == [] and empty.serve.records == []
    assert empty.serve.n_cta_slots == full.serve.n_cta_slots > 4  # slots × n_ctas
    assert empty.serve.meta["dropped"] == 0 and empty.serve.meta["n_epochs"] == 0
    assert empty.serve.makespan_us == 0.0

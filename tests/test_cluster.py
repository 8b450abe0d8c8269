"""Unit tests for multi-GPU scale-out (replication / sharding)."""

import numpy as np
import pytest

from repro.core.cluster import ReplicatedServer, ShardedServer
from repro.data.groundtruth import recall
from repro.graphs import build_cagra


def test_replication_scales_throughput(ds, graph):
    kw = dict(metric=ds.metric, k=10, l_total=64, batch_size=8, max_parallel=4)
    one = ReplicatedServer(ds.base, graph, n_gpus=1, **kw)
    four = ReplicatedServer(ds.base, graph, n_gpus=4, **kw)
    r1 = one.serve(ds.queries)
    r4 = four.serve(ds.queries)
    # identical results (same index everywhere)
    assert np.array_equal(r1.ids, r4.ids)
    assert r4.throughput_qps > 2.5 * r1.throughput_qps
    assert r4.serve.meta["n_gpus"] == 4


def test_replication_latency_unchanged(ds, graph):
    kw = dict(metric=ds.metric, k=10, l_total=64, batch_size=8, max_parallel=4)
    one = ReplicatedServer(ds.base, graph, n_gpus=1, **kw).serve(ds.queries)
    two = ReplicatedServer(ds.base, graph, n_gpus=2, **kw).serve(ds.queries)
    assert two.mean_latency_us < 1.2 * one.mean_latency_us


def test_sharding_recall_and_merge(ds):
    builder = lambda pts: build_cagra(pts, graph_degree=12, metric=ds.metric)
    server = ShardedServer(
        ds.base, builder, n_gpus=2, metric=ds.metric, k=10, l_total=64,
        batch_size=8, max_parallel=4,
    )
    rep = server.serve(ds.queries)
    assert recall(rep.ids, ds.gt_at(10)) > 0.8
    # global ids, no duplicates per row
    for row in rep.ids:
        live = row[row >= 0]
        assert len(set(live.tolist())) == len(live)
        assert (live < ds.n).all()


def test_sharded_completion_gated_by_slowest(ds):
    builder = lambda pts: build_cagra(pts, graph_degree=12, metric=ds.metric)
    server = ShardedServer(
        ds.base, builder, n_gpus=2, metric=ds.metric, k=10, l_total=64,
        batch_size=8, max_parallel=4,
    )
    rep = server.serve(ds.queries[:8])
    for r in rep.serve.records:
        assert r.complete_us > r.gpu_end_us  # merge cost added after slowest


def test_validation(ds, graph):
    with pytest.raises(ValueError):
        ReplicatedServer(ds.base, graph, n_gpus=0)
    with pytest.raises(ValueError):
        ShardedServer(ds.base[:3], lambda p: None, n_gpus=2)


def test_merged_report_aggregates_dropped_meta():
    """Replicas fan in through the one census: drops add up; a query one
    replica gave up on and a hedge answered is answered, not failed; the
    fan-in's own ledger is merged with the parts'."""
    from repro.core.serving import QueryRecord, ServeReport, merge_reports
    from repro.resilience import ResilienceStats

    def rec(qid):
        return QueryRecord(query_id=qid, arrival_us=0.0, dispatch_us=1.0,
                           gpu_start_us=2.0, gpu_end_us=5.0, detected_us=6.0,
                           complete_us=7.0)

    def ledger(failed_ids):
        stats = ResilienceStats(watchdog_kills=len(failed_ids))
        stats.failed_ids.extend(failed_ids)
        return stats.to_meta()

    def part(qid, meta):
        return ServeReport(records=[rec(qid)], makespan_us=10.0,
                           gpu_cta_busy_us=1.0, n_cta_slots=4, pcie=None,
                           host_busy_us=1.0, meta=meta)

    # Healthy parts: drops add up and no ledger appears.
    healthy = [part(0, {"dropped": 2, "dropped_ids": [3, 7]}),
               part(1, {"dropped": 1, "dropped_ids": [5]})]
    rep = merge_reports(healthy, [rec(0), rec(1)], 8, {"mode": "replicated"})
    assert rep.meta["dropped"] == 3
    assert rep.meta["dropped_ids"] == [3, 5, 7]
    assert "resilience" not in rep.meta  # healthy runs stay resilience-free

    primary = part(0, {"dropped": 2, "dropped_ids": [3, 7],
                       "resilience": ledger([1, 2]), "failed": 2,
                       "failed_ids": [1, 2]})
    hedge = part(1, {"dropped": 1, "dropped_ids": [5],
                     "resilience": ledger([])})
    cluster_ledger = ResilienceStats(hedges=2, hedge_wins=1)
    cluster_ledger.failed_ids.append(4)
    rep = merge_reports([primary, hedge], [rec(0), rec(1)], 8,
                        {"mode": "replicated"}, ledger=cluster_ledger)
    assert rep.meta["dropped"] == 3 and rep.meta["dropped_ids"] == [3, 5, 7]
    assert rep.meta["failed_ids"] == [2, 4] and rep.meta["failed"] == 2
    res = rep.meta["resilience"]
    assert res["failed_ids"] == [2, 4]
    assert res["watchdog_kills"] == 2 and res["hedges"] == 2 and res["hedge_wins"] == 1
    assert rep.meta["mode"] == "replicated"
    assert not {"shed", "shed_ids", "max_queue_depth"} & rep.meta.keys()


def test_cluster_serves_honour_precision_and_reject_hybrid_tier(ds, graph):
    """A cluster leg runs its system's serve steps: the server's
    ``precision`` and ``rerank_mult`` reach every replica and shard
    traversal, pooled shard rebuilds included.  Replicas and shards are
    ALGAS systems, so a hybrid ``tier`` is refused as it is by one."""
    from repro.core import ALGASSystem, ServeConfig

    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, max_parallel=4)
    int8 = dict(precision="int8", rerank_mult=1)
    single = ALGASSystem(ds.base, graph, **kw, **int8).serve(ds.queries)
    rep = ReplicatedServer(ds.base, graph, n_gpus=2, **kw, **int8).serve(ds.queries)
    assert np.array_equal(rep.ids, single.ids)
    assert np.array_equal(rep.dists, single.dists)

    shard_graphs = [
        build_cagra(ds.base[ids], graph_degree=12, metric=ds.metric)
        for ids in ShardedServer.shard_assignments(ds.base.shape[0], 2)
    ]

    def servers(**system_kw):
        return (
            ReplicatedServer(ds.base, graph, n_gpus=2, **kw, **system_kw),
            ShardedServer(ds.base, n_gpus=2, graphs=shard_graphs, **kw,
                          **system_kw),
        )

    f32s, q1s, q4s = servers(), servers(**int8), servers(precision="int8",
                                                        rerank_mult=4)
    with pytest.raises(TypeError, match="tier"):
        ReplicatedServer(ds.base, graph, n_gpus=2, tier="hybrid", **kw)
    with pytest.raises(TypeError, match="tier"):
        ShardedServer(ds.base, n_gpus=2, graphs=shard_graphs, tier="hybrid",
                      **kw)
    assert q1s[1].k == q1s[1].shards[0].system.k == 8
    assert q1s[1].shards[0].system.precision == "int8"
    for f32_server, q1_server, q4_server in zip(f32s, q1s, q4s):
        f32 = f32_server.serve(ds.queries).serve
        q1 = q1_server.serve(ds.queries).serve
        q4 = q4_server.serve(ds.queries).serve
        lat = [r.service_latency_us for r in f32.records]
        assert [r.service_latency_us for r in q1.records] != lat
        assert q4.to_json() != q1.to_json()
    # Pool workers rebuild the shard systems and fit the codec themselves.
    sharded = q1s[1]
    pooled = sharded.serve(ds.queries, ServeConfig(parallelism=2))
    sharded.close()
    assert pooled.serve.to_json() == q1.to_json()

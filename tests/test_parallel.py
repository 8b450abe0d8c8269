"""Multi-core substrate tests: pools, shared arenas, and parity.

The contract under test (docs/performance.md, "Multi-core execution") is
that ``parallelism`` is a pure execution knob: every report, graph, and
telemetry document is byte-identical at any worker count, and the shared
-memory segments backing process workers never outlive their arena —
even when a worker crashes mid-task.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro.core import ALGASSystem, ServeConfig, ShardedServer
from repro.data.workload import Poisson, TrafficSpec
from repro.graphs import build_cagra
from repro.parallel import SharedArena, WorkerPool, cores, make_pool, resolve_ref
from repro.resilience import ResiliencePolicy, named_plan
from repro.telemetry import Telemetry
from repro.telemetry.exposition import to_prometheus_text

# ------------------------------------------------------------------- helpers


def _square(x):
    return x * x


def _crash(_):
    os._exit(1)


def _builder12(pts):
    # Module-level so process workers can unpickle it.
    return build_cagra(pts, graph_degree=12)


def _shm_leftovers() -> list[str]:
    return [p for p in glob.glob("/dev/shm/repro_*")]


# ---------------------------------------------------------------- WorkerPool


def test_pool_mode_resolution():
    # one worker or none runs inline; more is a process pool until closed
    assert not make_pool(None).is_parallel
    assert not make_pool(0).is_parallel
    assert not make_pool(1).is_parallel
    p = make_pool(2)
    assert p.is_parallel and p.n_workers == 2
    p.close()
    assert not p.is_parallel
    with pytest.raises(ValueError):
        WorkerPool(-1)
    with pytest.raises(TypeError):
        WorkerPool(2, mode="thread")


def test_pool_map_is_ordered():
    xs = list(range(17))
    want = [_square(x) for x in xs]
    for n_workers in (0, 4):
        with make_pool(n_workers) as pool:
            assert pool.map(_square, xs) == want


def test_pool_worker_crash_raises():
    with make_pool(2) as pool:
        with pytest.raises(RuntimeError):
            pool.map(_crash, [0, 1])


def _cores(_):
    return cores()


def test_pool_workers_run_no_threads_of_their_own():
    assert cores() >= 1
    with WorkerPool(2) as pool:
        assert pool.map(_cores, [0, 1]) == [1, 1]


# --------------------------------------------------------------- SharedArena


def test_arena_disabled_is_inline():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    with SharedArena(enabled=False) as arena:
        ref = arena.share(arr)
        assert ref.kind == "inline"
        assert resolve_ref(ref) is arr
    assert arena.segment_names == []


def test_arena_share_roundtrip_shm():
    arr = np.arange(30, dtype=np.int32).reshape(5, 6)
    with SharedArena() as arena:
        ref = arena.share(arr)
        assert ref.kind == "shm" and ref.nbytes == arr.nbytes
        out = resolve_ref(ref)
        np.testing.assert_array_equal(out, arr)
        assert not out.flags.writeable  # workers read, never write
    # after close, a fresh attach must fail: the segment is gone
    with pytest.raises(FileNotFoundError):
        from multiprocessing import shared_memory

        shared_memory.SharedMemory(name=ref.name)


def test_arena_share_memmap_is_zero_copy(tmp_path):
    path = tmp_path / "base.npy"
    data = np.arange(24, dtype=np.float32).reshape(6, 4)
    np.save(path, data)
    mm = np.load(path, mmap_mode="r")
    with SharedArena() as arena:
        ref = arena.share(mm)
        assert ref.kind == "mmap" and ref.path == os.fspath(path)
        np.testing.assert_array_equal(resolve_ref(ref), data)
    assert arena.segment_names == []  # nothing was copied into shm


def test_arena_close_reclaims_segments():
    before = set(_shm_leftovers())
    arena = SharedArena()
    arena.share(np.zeros(1000, dtype=np.float64))
    arena.share(np.zeros(100, dtype=np.float32))
    names = arena.segment_names
    assert len(names) == 2
    arena.close()
    arena.close()  # idempotent
    after = set(_shm_leftovers()) - before
    assert not any(n in path for path in after for n in names)


def test_no_segment_leak_after_worker_crash():
    """A worker crash must not leak the arena's segments: workers attach
    but never own, and the parent reclaims on close."""
    before = set(_shm_leftovers())
    arena = SharedArena()
    ref = arena.share(np.arange(64, dtype=np.float32))
    with make_pool(2) as pool:
        with pytest.raises(RuntimeError):
            pool.map(_crash, [ref, ref])
    arena.close()
    leaked = {p for p in _shm_leftovers()} - before
    assert not any(ref.name in p for p in leaked)


# ----------------------------------------------------------- serving parity
# (drawn precisions, CTA splits and batches: test_batch_invariance.py)

PAR_LEVELS = (0, 2)


def _sharded(ds, **kw):
    return ShardedServer(
        ds.base, _builder12, n_gpus=2, metric=ds.metric, k=10,
        l_total=64, batch_size=8, max_parallel=4, **kw,
    )


def _serve_json(server, queries, cfg):
    try:
        rep = server.serve(queries, cfg)
    finally:
        if hasattr(server, "close"):
            server.close()
    return rep.serve.to_json(), rep.ids, rep.dists


@pytest.mark.parametrize(
    "scenario",
    ["healthy", "faults", "quorum", "admission"],
)
def test_sharded_parity_across_parallelism(ds, scenario):
    if scenario == "healthy":
        cfg = ServeConfig()
    elif scenario == "faults":
        cfg = ServeConfig(faults=named_plan("smoke"))
    elif scenario == "quorum":
        cfg = ServeConfig(
            faults=named_plan("shard-kill"),
            resilience=ResiliencePolicy(quorum_k=1),
        )
    else:  # admission control: one queue per shard, drops merged
        cfg = ServeConfig(
            workload=TrafficSpec(
                process=Poisson(rate_qps=50_000, seed=5),
                deadline_us=2_000.0, max_queue_depth=16,
            )
        )
    outs = [
        _serve_json(_sharded(ds, parallelism=par), ds.queries[:24], cfg)
        for par in PAR_LEVELS
    ]
    base_json, base_ids, base_dists = outs[0]
    for js, ids, dists in outs[1:]:
        assert js == base_json
        np.testing.assert_array_equal(ids, base_ids)
        np.testing.assert_array_equal(dists, base_dists)


def test_telemetry_parity_across_parallelism(ds):
    texts = []
    for par in PAR_LEVELS:
        tel = Telemetry()
        server = _sharded(ds, parallelism=par)
        try:
            server.serve(ds.queries[:16], ServeConfig(telemetry=tel))
        finally:
            server.close()
        texts.append(to_prometheus_text(tel.registry))
    assert texts[0] == texts[1]


def test_single_system_host_meta(ds, graph):
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=10, l_total=64)
    rep = system.serve(ds.queries[:8])
    host = rep.serve.meta["host"]
    assert host["threads_needed"] >= 1
    assert 0.0 <= host["utilization_per_thread"]


# --------------------------------------------------------- prebuilt graphs=


def test_sharded_prebuilt_graphs_match_builder(ds):
    kw = dict(metric=ds.metric, k=10, l_total=64, batch_size=8)
    via_builder = ShardedServer(ds.base, _builder12, n_gpus=2, seed=3, **kw)
    graphs = [
        _builder12(ds.base[ids])
        for ids in ShardedServer.shard_assignments(ds.n, 2, seed=3)
    ]
    via_prebuilt = ShardedServer(ds.base, n_gpus=2, seed=3, graphs=graphs, **kw)
    r1 = via_builder.serve(ds.queries[:16])
    r2 = via_prebuilt.serve(ds.queries[:16])
    assert r1.serve.to_json() == r2.serve.to_json()
    np.testing.assert_array_equal(r1.ids, r2.ids)


def test_sharded_graphs_validation(ds):
    with pytest.raises(ValueError, match="graph_builder or prebuilt"):
        ShardedServer(ds.base, n_gpus=2)
    with pytest.raises(ValueError, match="one graph per GPU"):
        ShardedServer(ds.base, n_gpus=2, graphs=[_builder12(ds.base)])
    with pytest.raises(ValueError, match="shard_assignments"):
        ShardedServer(
            ds.base, n_gpus=2,
            graphs=[_builder12(ds.base), _builder12(ds.base)],
        )


def test_parallel_shard_build_matches_sequential(ds):
    kw = dict(metric=ds.metric, k=10, l_total=64, batch_size=8)
    seq = ShardedServer(ds.base, _builder12, n_gpus=2, **kw)
    par = ShardedServer(ds.base, _builder12, n_gpus=2, parallelism=2, **kw)
    for a, b in zip(seq.shards, par.shards):
        np.testing.assert_array_equal(a.system.graph.indptr, b.system.graph.indptr)
        np.testing.assert_array_equal(a.system.graph.indices, b.system.graph.indices)


def test_lambda_builder_falls_back_to_threads(ds, caplog):
    # Lambdas can't pickle (the name predates the thread pool's removal):
    # the shards are built one after the other, and the server says so once.
    kw = dict(n_gpus=2, metric=ds.metric, k=10, l_total=64)
    with caplog.at_level("WARNING", logger="repro.core.cluster"):
        server = ShardedServer(
            ds.base, lambda p: build_cagra(p, graph_degree=12),
            parallelism=2, **kw,
        )
    downgrades = [r for r in caplog.records if "sequentially" in r.getMessage()]
    assert len(downgrades) == 1
    assert "<lambda>" in downgrades[0].getMessage()
    assert server.parallelism == 2  # serves still fan out
    sequential = ShardedServer(ds.base, _builder12, **kw)
    for a, b in zip(server.shards, sequential.shards):
        np.testing.assert_array_equal(a.system.graph.indptr, b.system.graph.indptr)
        np.testing.assert_array_equal(a.system.graph.indices, b.system.graph.indices)


def test_builder_pickling_bug_is_not_swallowed(ds):
    # Only pickling errors downgrade the build; a builder whose __reduce__
    # raises anything else is a bug and must surface.
    class Exploding:
        def __call__(self, pts):
            return build_cagra(pts, graph_degree=12)

        def __reduce__(self):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        ShardedServer(ds.base, Exploding(), n_gpus=2, parallelism=2,
                      metric=ds.metric, k=10, l_total=64)


# ----------------------------------------------------------------- run_sweep


def test_run_sweep_parity():
    from repro.bench.runner import run_sweep

    configs = list(range(8))
    seq = run_sweep(_square, configs)
    par = run_sweep(_square, configs, parallelism=2)
    assert seq == par == [x * x for x in configs]


def test_sweep_load_parity():
    from repro.core.serving import QueryJob
    from repro.load import FleetConfig, sweep_load

    templates = [
        QueryJob(query_id=i, arrival_us=i * 50.0,
                 cta_durations_us=(100.0, 100.0), dim=8, k=4)
        for i in range(4)
    ]
    from repro.data.workload import Poisson as P

    fleet = FleetConfig(n_replicas=2, slots_per_replica=4)
    kw = dict(n_queries=96, fleet=fleet, seed=0)
    seq = sweep_load(templates, lambda r: P(rate_qps=r, seed=0),
                     [5_000.0, 20_000.0], **kw)
    par = sweep_load(templates, lambda r: P(rate_qps=r, seed=0),
                     [5_000.0, 20_000.0], parallelism=2, **kw)
    assert seq == par


# ------------------------------------------------------------------ chaos CLI


def test_chaos_parallel_parity():
    from repro.resilience import run_chaos

    kw = dict(mode="sharded", n_gpus=2, n=1200, n_queries=24, k=8, degree=12)
    seq = run_chaos("smoke", **kw)
    par = run_chaos("smoke", parallelism=2, **kw)
    assert seq.report.serve.to_json() == \
        par.report.serve.to_json()
    assert json.dumps(seq.resilience, sort_keys=True) == \
        json.dumps(par.resilience, sort_keys=True)

"""Unified ServeConfig surface: workload adapter forms + validation."""

import warnings

import numpy as np
import pytest

from repro.baselines import CAGRASystem, GANNSSystem, IVFSystem
from repro.core import ALGASSystem, ReplicatedServer, ServeConfig, ShardedServer
from repro.core.serving import as_serve_config
from repro.data import load_dataset, poisson_arrivals
from repro.data.workload import Poisson, TrafficSpec
from repro.graphs import build_cagra

from .oracles import assert_same_search_all, scalar_search_all


@pytest.fixture(scope="module")
def mini():
    ds = load_dataset("sift1m-mini", n=1500, n_queries=16, gt_k=16, seed=0)
    g = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
    return ds, g


def _systems(ds, g):
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    yield "algas", ALGASSystem(ds.base, g, **kw)
    yield "cagra", CAGRASystem(ds.base, g, **kw)
    yield "ganns", GANNSSystem(ds.base, g, **kw)
    yield "ivf", IVFSystem(ds.base, nlist=16, nprobe=4, metric=ds.metric,
                           k=8, batch_size=8, seed=0)


# ----------------------------------------------------------- workload forms
@pytest.mark.parametrize("name", ["algas", "cagra", "ganns", "ivf"])
def test_event_list_adapter_parity(mini, name):
    """A bare event list passed positionally == ServeConfig(workload=...),
    with no deprecation noise (the adapter is a first-class form)."""
    ds, g = mini
    events = poisson_arrivals(len(ds.queries), rate_qps=200_000, seed=1)
    system = dict(_systems(ds, g))[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = system.serve(ds.queries, events)
        cfg = system.serve(ds.queries, ServeConfig(workload=events))
    assert np.array_equal(bare.ids, cfg.ids)
    assert bare.serve.summary() == cfg.serve.summary()
    assert [r.complete_us for r in bare.serve.records] == [
        r.complete_us for r in cfg.serve.records
    ]


def test_arrival_process_workload_parity(mini):
    """A declarative process in ServeConfig.workload == the event list it
    generates; a bare process is accepted positionally too."""
    ds, g = mini
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=8, seed=0)
    proc = Poisson(rate_qps=200_000, seed=1)
    events = proc.events(len(ds.queries))
    via_proc = system.serve(ds.queries, ServeConfig(workload=proc))
    via_bare = system.serve(ds.queries, proc)
    via_events = system.serve(ds.queries, ServeConfig(workload=events))
    assert via_proc.serve.summary() == via_events.serve.summary()
    assert via_bare.serve.summary() == via_events.serve.summary()


def test_cluster_servers_accept_workload_forms(mini):
    ds, g = mini
    events = poisson_arrivals(len(ds.queries), rate_qps=200_000, seed=1)
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    rs = ReplicatedServer(ds.base, g, n_gpus=2, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = rs.serve(ds.queries, events)
        cfg = rs.serve(ds.queries, ServeConfig(workload=events))
    assert bare.serve.summary() == cfg.serve.summary()

    builder = lambda pts: build_cagra(pts, graph_degree=16, metric=ds.metric)
    ss = ShardedServer(ds.base, builder, n_gpus=2, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = ss.serve(ds.queries, events)
        cfg = ss.serve(ds.queries, ServeConfig(workload=events))
    assert bare.serve.summary() == cfg.serve.summary()


# --------------------------------------------------------- admission control
def test_traffic_spec_admission_on_algas(mini):
    """A TrafficSpec with a deadline flows into the dynamic batcher: shed
    and deadline-dropped queries are accounted as drops, not failures."""
    ds, g = mini
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=8, seed=0)
    spec = TrafficSpec(
        process=Poisson(rate_qps=500_000, seed=1),
        deadline_us=1.0,  # absurdly tight: most queries must drop
        max_queue_depth=4,
    )
    rep = system.serve(ds.queries, ServeConfig(workload=spec))
    meta = rep.serve.meta
    assert meta["dropped"] > 0
    assert meta.get("failed", 0) == 0
    assert meta["max_queue_depth"] == 4
    assert set(meta["shed_ids"]) <= set(meta["dropped_ids"])
    assert len(rep.serve.records) + meta["dropped"] == len(ds.queries)


def test_traffic_spec_without_admission_is_plain_events(mini):
    ds, g = mini
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=8, seed=0)
    proc = Poisson(rate_qps=200_000, seed=1)
    spec = TrafficSpec(process=proc)  # no deadline, no depth limit
    a = system.serve(ds.queries, ServeConfig(workload=spec))
    b = system.serve(ds.queries, ServeConfig(workload=proc))
    assert a.serve.summary() == b.serve.summary()
    assert "max_queue_depth" not in a.serve.meta


@pytest.mark.parametrize("name", ["cagra", "ganns", "ivf"])
def test_static_engines_reject_admission(mini, name):
    ds, g = mini
    system = dict(_systems(ds, g))[name]
    spec = TrafficSpec(process=Poisson(rate_qps=200_000), deadline_us=50.0)
    with pytest.raises(ValueError, match="admission control"):
        system.serve(ds.queries, ServeConfig(workload=spec))


@pytest.mark.parametrize("name", ["algas", "cagra", "ganns", "ivf"])
def test_hybrid_tier_without_a_pilot_is_refused(mini, name):
    """No system without a pilot index serves the hybrid tier: a serve
    cannot ask for a tier, and the system's own serve (the one
    ``ServeConfig()`` runs) carries no ``meta["tier"]``."""
    ds, g = mini
    system = dict(_systems(ds, g))[name]
    with pytest.raises(TypeError, match="tier"):
        system.serve(ds.queries, ServeConfig(tier="hybrid"))
    default = system.serve(ds.queries, ServeConfig())
    plain = system.serve(ds.queries)
    assert "tier" not in plain.serve.meta
    assert default.serve.to_json() == plain.serve.to_json()


def test_sharded_and_replicated_accept_admission(mini):
    ds, g = mini
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    spec = TrafficSpec(process=Poisson(rate_qps=500_000, seed=1),
                       max_queue_depth=4)
    rs = ReplicatedServer(ds.base, g, n_gpus=2, **kw)
    rep = rs.serve(ds.queries, ServeConfig(workload=spec))
    assert "shed" in rep.serve.meta  # admission ran on the replicas

    # Sharded serving arms the same admission policy on every per-shard
    # queue and reconciles drops at quorum fan-in: a query only counts as
    # dropped/shed at the cluster level if *no* shard answered it.
    builder = lambda pts: build_cagra(pts, graph_degree=16, metric=ds.metric)
    ss = ShardedServer(ds.base, builder, n_gpus=2, **kw)
    srep = ss.serve(ds.queries, ServeConfig(workload=spec))
    assert srep.serve.meta["max_queue_depth"] == 4
    # The documented census, on both servers: every query is answered or
    # dropped, and a shed query is a drop.
    for report in (rep, srep):
        meta = report.serve.meta
        answered = {r.query_id for r in report.serve.records}
        assert answered.isdisjoint(meta["dropped_ids"])
        assert set(meta["shed_ids"]) <= set(meta["dropped_ids"])
        assert len(answered) + meta["dropped"] == len(ds.queries)


# ---------------------------------------------------------------- overrides
def test_slots_override_changes_engine_width(mini):
    """The slot count is the system's: two systems built at 2 and 8 slots
    return the same results on engines of different width."""
    ds, g = mini
    kw = dict(metric=ds.metric, k=8, l_total=64, seed=0)
    narrow = ALGASSystem(ds.base, g, batch_size=2, **kw).serve(ds.queries)
    wide = ALGASSystem(ds.base, g, batch_size=8, **kw).serve(ds.queries)
    # Same results, different scheduling width.
    assert np.array_equal(narrow.ids, wide.ids)
    assert narrow.serve.makespan_us > wide.serve.makespan_us


def test_backend_and_seed_overrides(mini):
    ds, g = mini
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=8, seed=0)
    # The search-backend knob is gone (one engine on the serve path) ...
    with pytest.raises(TypeError, match="backend"):
        ServeConfig(backend="scalar")
    # ... and the seed override reaches the entry-point rng: the serve
    # matches the scalar oracle run at the overriding seed, bit for bit.
    rep = system.serve(ds.queries, ServeConfig(seed=3))
    assert_same_search_all(
        (rep.ids, rep.dists, rep.traces),
        scalar_search_all(system, ds.queries, seed=3),
    )
    assert rep.traces != system.serve(ds.queries).traces


# --------------------------------------------------------------- validation
def test_serve_config_validation(mini):
    ds, g = mini
    with pytest.raises(ValueError, match="batch_size"):
        ALGASSystem(ds.base, g, metric=ds.metric, batch_size=0)
    with pytest.raises(TypeError):
        ServeConfig(workload=[1, 2, 3])


def test_as_serve_config_coercion():
    cfg = ServeConfig(seed=4)
    assert as_serve_config(cfg) is cfg
    assert as_serve_config(None) == ServeConfig()
    proc = Poisson(rate_qps=1000)
    assert as_serve_config(proc) == ServeConfig(workload=proc)
    spec = TrafficSpec(process=proc, deadline_us=100.0)
    assert as_serve_config(spec) == ServeConfig(workload=spec)
    evs = poisson_arrivals(4, 1000, seed=0)
    assert as_serve_config(evs) == ServeConfig(workload=evs)
    with pytest.raises(TypeError, match="expected a ServeConfig"):
        as_serve_config({"seed": 4})


# ----------------------------------------------- meta serialization fidelity
def test_report_meta_survives_json_roundtrip(mini):
    """meta entries holding dataclasses, tuples, ndarrays and numpy scalars
    must come back as plain JSON types from to_json/from_json — no repr
    strings (the codec provenance in meta["precision"] relies on this)."""
    from repro.core.serving import ServeReport
    from repro.search import make_codec

    ds, g = mini
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=8, seed=0)
    report = system.serve(ds.queries).serve
    report.meta["probe"] = {
        "tuple": (1, 2), "set": {3}, "arr": np.arange(3),
        "np_f": np.float32(1.5), "np_b": np.bool_(True),
        "codec": make_codec("int8", ds.base, metric=ds.metric).info(),
    }
    back = ServeReport.from_json(report.to_json())
    probe = back.meta["probe"]
    assert probe["tuple"] == [1, 2] and probe["set"] == [3]
    assert probe["arr"] == [0, 1, 2]
    assert probe["np_f"] == 1.5 and probe["np_b"] is True
    assert probe["codec"]["precision"] == "int8"
    assert probe["codec"]["dim"] == ds.dim
    # a second round-trip is a fixed point
    again = ServeReport.from_json(back.to_json())
    assert again.meta == back.meta


def test_serve_config_precision_validation(mini):
    ds, g = mini
    kw = dict(metric=ds.metric, k=8, l_total=64)
    with pytest.raises(ValueError, match="precision"):
        ALGASSystem(ds.base, g, precision="bf16", **kw)
    with pytest.raises(ValueError, match="rerank_mult"):
        ALGASSystem(ds.base, g, rerank_mult=-1, **kw)
    system = ALGASSystem(ds.base, g, precision="pq", rerank_mult=2, **kw)
    assert system.precision == "pq"


# ------------------------------------------ one place for every served value
def test_serve_config_carries_per_run_inputs_only():
    """What is served (slots, precision, re-rank pool, tier) is set on the
    system's constructor: ``ServeConfig`` holds per-run inputs, and no
    search or engine entry point takes a per-call override."""
    import dataclasses
    import inspect

    from repro.core.pipeline import BaseGraphSystem
    from repro.hybrid import HybridSystem

    assert {f.name for f in dataclasses.fields(ServeConfig)} == {
        "workload", "seed", "telemetry", "faults", "resilience", "parallelism",
    }
    removed = {"slots", "precision", "rerank_mult", "tier"}
    for fn in (
        ALGASSystem.search_all, ALGASSystem.make_engine,
        ALGASSystem.engine_config, ALGASSystem.traversal_codec,
        HybridSystem.hybrid_search_all, HybridSystem.engine_config,
        CAGRASystem.make_engine, GANNSSystem.make_engine,
        IVFSystem.make_engine,
    ):
        assert removed.isdisjoint(inspect.signature(fn).parameters), fn
    assert "tier" not in inspect.signature(HybridSystem).parameters
    # One serve body for every system, IVF included.
    for cls in (ALGASSystem, HybridSystem, CAGRASystem, GANNSSystem, IVFSystem):
        assert cls.serve is BaseGraphSystem.serve, cls


def test_infeasible_slot_count_is_refused(mini):
    """A slot count the tuner cannot make resident is refused at
    construction, naming slots, ``n_parallel``, blocks and device; the
    static baselines schedule blocks in waves and still take it."""
    from repro.hybrid import HybridSystem

    ds, g = mini
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=4096)
    match = r"batch_size=4096 .*RTX A6000: n_parallel=1 gives 4096 resident"
    for make in (ALGASSystem, HybridSystem,
                 lambda *a, **k: ReplicatedServer(*a, n_gpus=2, **k)):
        with pytest.raises(ValueError, match=match):
            make(ds.base, g, **kw)
    for cls in (CAGRASystem, GANNSSystem):
        rep = cls(ds.base, g, **kw).serve(ds.queries)
        assert len(rep.serve.records) == len(ds.queries)

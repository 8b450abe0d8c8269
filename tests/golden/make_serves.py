"""Generator of ``tests/golden/serves.json``.

The fixture freezes what every ``serve()`` entry point produced at commit
``6b2560b`` — the last commit where the hybrid tier, the cluster legs and
the stream epoch each typed out their own copy of
``BaseGraphSystem.serve``'s stages, and ``ShardedServer`` kept a second,
healthy-only fan-in beside its quorum merge — so ``tests/test_serving.py``
makes "one serve body did not move a number" a tier-1 fact.  Per scenario
it holds the sha256 of ``ServeReport.to_json()``, of the result ``ids`` and
``dists`` bytes and, where the scenario runs with telemetry on, of
``Telemetry.to_prometheus()`` and of the telemetry JSON document
(``json.dumps(tel.to_dict(max_spans=None), sort_keys=True)``: metrics,
slot occupancy and every span in log order).  No system gets
``build_info``: its ``build_seconds`` is wall time.

The scenarios cover every entry point and every fan-in branch:

* ``ALGASSystem`` — closed loop; Poisson arrivals under a deadline and a
  queue-depth limit; a slot-fault plan under ``DEFAULT_POLICY``; int8
  traversal with ``rerank_mult=3``;
* ``HybridSystem`` — the hybrid tier at float32 and with an int8 pilot
  traversal;
* ``CAGRASystem``, ``IVFSystem``;
* ``ReplicatedServer`` — healthy at ``parallelism`` 0 and 2; admission;
  a replica kill with percentile hedging; a slow replica with a fixed
  ``hedge_delay_us``;
* ``ShardedServer`` — healthy at ``parallelism`` 0 and 2; admission; a
  shard kill; a slow shard; ``quorum_k=4`` with a tight straggler budget;
  the healthy fan-in with telemetry on; int8 shards at ``parallelism=2``
  (pooled shard systems rebuild from the server's constructor keywords).

Regenerating on ``6b2560b`` reproduces every digest of the first twenty
scenarios.  The three quantized ones (``algas-int8``, ``hybrid-int8``,
``sharded-int8-p2``) were frozen at ``fbcd248``, where ``ServeConfig``
still carried ``precision`` / ``rerank_mult`` overrides: each is built
here through constructor keywords only, so it pins "construction equals
the old override".  The ``hybrid-gpu`` scenario of ``6b2560b`` is gone
with ``HybridSystem``'s ``tier="gpu"``; its digests were those of
``algas-closed``.

Every graph scenario was re-frozen when each CTA began to seed half its
candidate list from entries hashed from its query and the system seed
(``query_entries``), where it had drawn two from one rng in batch order:
the report digest moved in all twenty graph scenarios (ids and dists
where the served rows changed; the hybrid and sharded rows, refined or
merged, kept theirs in seven), and ``ivf`` did not move.  The
``ivfpq`` scenario left with the IVF-PQ baseline.

The telemetry-document digests were added at ``0b93fd6``, the last
commit that built a ``Span`` object per lifecycle step as a serve ran,
before the span log began to keep one entry a lifecycle hook and to
build spans only when it is read.

Nine ``report`` digests were re-frozen after ``8ef5f79``, the last
commit where the stream, replicated and sharded fan-ins each kept their
own census, when they became one (``repro.core.serving.merge_reports``);
every ``ids``, ``dists``, ``prometheus`` and ``telemetry_doc`` digest
kept its value:

* ``replicated-admission`` gains ``max_queue_depth`` (present whenever a
  part armed queue-depth admission, as on one engine);
* ``sharded-admission``: ``shed`` goes 0 → 11, the shards' sheds that no
  shard answered (the old fan-in counted them under ``dropped`` only,
  against ``shed_ids ⊆ dropped_ids``);
* ``sharded-p0``, ``-p2``, ``-telemetry`` and ``-int8-p2`` gain
  ``dropped: 0`` (``dropped`` is present in every report);
* ``sharded-kill``, ``-slow`` and ``-quorum4-tight`` lose an empty
  ``shed`` (no shard armed queue-depth admission).

    PYTHONPATH=src python -m tests.golden.make_serves
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.baselines import CAGRASystem, IVFSystem
from repro.core import ALGASSystem, ReplicatedServer, ServeConfig, ShardedServer
from repro.data import load_dataset
from repro.data.workload import Poisson, TrafficSpec
from repro.graphs import build_cagra
from repro.hybrid import HybridSystem
from repro.resilience import (
    DEFAULT_POLICY,
    FaultPlan,
    ResiliencePolicy,
    ShardFault,
    SlotFault,
)
from repro.telemetry import Telemetry

FIXTURE = Path(__file__).with_name("serves.json")
N, N_QUERIES, N_SHARDS = 1200, 32, 4
KW = dict(k=8, l_total=32, batch_size=4)

ADMISSION = TrafficSpec(
    process=Poisson(rate_qps=1_200_000.0, seed=1),
    deadline_us=30.0, max_queue_depth=3,
)
SLOT_FAULTS = FaultPlan(seed=2, slot_faults=(
    SlotFault(0, "hang"),
    SlotFault(1, "corrupt", on_dispatch=2),
    SlotFault(2, "straggle", on_dispatch=3, factor=3.0),
))


def _plan(*faults: ShardFault) -> FaultPlan:
    return FaultPlan(seed=3, shard_faults=faults)


#: name -> (entry point, ServeConfig keywords, telemetry on)
SCENARIOS = {
    "algas-closed": ("algas", {}, False),
    "algas-admission": ("algas", dict(workload=ADMISSION), False),
    "algas-slot-faults": (
        "algas", dict(faults=SLOT_FAULTS, resilience=DEFAULT_POLICY), True),
    "algas-int8": ("algas", {}, False),
    "hybrid-hybrid": ("hybrid", {}, True),
    "hybrid-int8": ("hybrid", {}, False),
    "cagra": ("cagra", {}, False),
    "ivf": ("ivf", {}, False),
    "replicated-p0": ("replicated", dict(parallelism=0), False),
    "replicated-p2": ("replicated", dict(parallelism=2), False),
    "replicated-admission": ("replicated", dict(workload=ADMISSION), False),
    "replicated-kill-hedge-percentile": (
        "replicated", dict(faults=_plan(ShardFault(1, "kill", at_us=30.0))),
        True),
    "replicated-slow-hedge-delay": (
        "replicated",
        dict(faults=_plan(ShardFault(0, "slow", factor=3.0)),
             resilience=ResiliencePolicy(hedge_delay_us=40.0)),
        False),
    "sharded-p0": ("sharded", dict(parallelism=0), False),
    "sharded-p2": ("sharded", dict(parallelism=2), False),
    "sharded-admission": ("sharded", dict(workload=ADMISSION), False),
    "sharded-kill": (
        "sharded", dict(faults=_plan(ShardFault(2, "kill", at_us=60.0))), True),
    "sharded-slow": (
        "sharded",
        dict(faults=_plan(ShardFault(1, "slow", factor=4.0)),
             resilience=ResiliencePolicy(straggler_budget_us=20.0)),
        False),
    "sharded-quorum4-tight": (
        "sharded",
        dict(resilience=ResiliencePolicy(quorum_k=4, straggler_budget_us=1.0)),
        False),
    "sharded-telemetry": ("sharded", {}, True),
    "sharded-int8-p2": ("sharded", dict(parallelism=2), False),
}

#: name -> system constructor keywords beyond ``KW``
SYSTEM_KW = {
    "algas-int8": dict(precision="int8", rerank_mult=3),
    "hybrid-int8": dict(precision="int8"),
    "sharded-int8-p2": dict(precision="int8"),
}


@functools.lru_cache(maxsize=1)
def corpus():
    """``(dataset, full graph, per-shard graphs)``, built once."""
    ds = load_dataset("sift1m-mini", n=N, n_queries=N_QUERIES, gt_k=8, seed=5)
    graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=0)
    shard_graphs = [
        build_cagra(ds.base[ids], graph_degree=10, metric=ds.metric, seed=0)
        for ids in ShardedServer.shard_assignments(N, N_SHARDS, seed=0)
    ]
    return ds, graph, shard_graphs


def make_server(kind: str, **system_kw):
    ds, graph, shard_graphs = corpus()
    kw = dict(metric=ds.metric, **KW, **system_kw)
    if kind == "algas":
        return ALGASSystem(ds.base, graph, **kw)
    if kind == "hybrid":
        return HybridSystem(ds.base, graph, sample_ratio=0.5, pilot_dim=32,
                            n_candidates=16, refine_steps=8, **kw)
    if kind == "cagra":
        return CAGRASystem(ds.base, graph, **kw)
    if kind == "ivf":
        return IVFSystem(ds.base, nlist=16, nprobe=4, metric=ds.metric,
                         k=8, batch_size=4)
    if kind == "replicated":
        return ReplicatedServer(ds.base, graph, n_gpus=2, **kw)
    return ShardedServer(ds.base, n_gpus=N_SHARDS, seed=0,
                         graphs=shard_graphs, **kw)


def run(name: str):
    """``(SystemReport, Telemetry or None)`` of one scenario, run from
    scratch."""
    kind, cfg_kw, with_tel = SCENARIOS[name]
    tel = Telemetry() if with_tel else None
    server = make_server(kind, **SYSTEM_KW.get(name, {}))
    try:
        rep = server.serve(corpus()[0].queries,
                           ServeConfig(telemetry=tel, **cfg_kw))
    finally:
        if kind == "sharded":
            server.close()
    return rep, tel


def digests(rep, tel) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {
        "report": sha(rep.serve.to_json().encode()),
        "ids": sha(np.ascontiguousarray(rep.ids).tobytes()),
        "dists": sha(np.ascontiguousarray(rep.dists).tobytes()),
    }
    if tel is not None:
        out["prometheus"] = sha(tel.to_prometheus().encode())
        out["telemetry_doc"] = sha(
            json.dumps(tel.to_dict(max_spans=None), sort_keys=True).encode()
        )
    return out


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def build() -> dict:
    return {name: digests(*run(name)) for name in SCENARIOS}


def main() -> None:
    doc = build()
    FIXTURE.write_text(render(doc))
    print(f"wrote {len(doc)} serve digests to {FIXTURE}")


if __name__ == "__main__":
    main()

"""Generator of ``tests/golden/schedules.json``.

The fixture freezes what ``DynamicBatchEngine.serve`` produced before the
scheduler was last rewritten, so ``tests/test_soa_tick_parity.py`` makes
"the scheduler did not move" a tier-1 fact.  Two generations:

* nine small schedules (4 slots x 2 CTAs) frozen at commit ``a2fd882``
  under ``tick_mode="loop"`` — the per-slot reference host pass, the last
  commit that had one: healthy, three host threads, naive state mode, GPU
  merge, faults with and without an explicit policy, retry exhaustion,
  overload degradation, deadline drops;
* nine more (``LINK_SUMS``) frozen at commit ``c52a86c`` — the dense
  numpy host pass, the last commit that executed every wake — before the
  change-driven pass replaced it: 16 slots x 8 CTAs under open-loop
  Poisson arrivals where the system idles (3 000 q/s: the regime in which
  no-op wakes are skipped), at the knee (450k q/s) and in overload
  (700k q/s); GPU merge at that shape; three host threads fed integer-µs
  arrivals at a sparse rate (every thread on the same 0.5 µs float grid —
  the exact-tie case); queue-depth shedding; hybrid-tier jobs
  (``result_entries`` + ``host_us``), healthy and behind an injected PCIe
  stall; mixed priorities.  These also pin the PCIe link's float sums
  (``busy_us``, ``stall_us``), which the first nine do not.

Where telemetry is on, a scenario also pins two digests of what it
recorded: the Prometheus text (``telemetry_sha256``) and the telemetry
JSON document (``telemetry_doc_sha256``: metrics, slot occupancy and
every span in log order).  The document digests were added at
``0b93fd6``, the last commit that built a ``Span`` object per lifecycle
step as a serve ran.

Regenerating on ``c52a86c`` reproduces all eighteen byte for byte
(``tick_mode`` is passed only while ``DynamicBatchConfig`` still has the
field, so the script runs on either side of its removal):

    PYTHONPATH=src python -m tests.golden.make_schedules
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.dynamic_batcher import (
    DynamicBatchConfig,
    DynamicBatchEngine,
    _ServeRun,
)
from repro.core.query_manager import ManagedQuery
from repro.core.serving import QueryJob
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.resilience.faults import FaultPlan, PCIeStall, SlotFault
from repro.resilience.policy import ResiliencePolicy
from repro.telemetry import MetricsRegistry, Telemetry

FIXTURE = Path(__file__).with_name("schedules.json")
CM = CostModel(RTX_A6000)

FAULTS = FaultPlan(
    slot_faults=[
        SlotFault(slot_id=1, on_dispatch=1, kind="hang"),
        SlotFault(slot_id=2, on_dispatch=2, kind="corrupt"),
        SlotFault(slot_id=0, on_dispatch=3, kind="straggle", factor=4.0),
    ],
    pcie_stalls=[PCIeStall(start_us=40.0, duration_us=15.0)],
)
POLICY = ResiliencePolicy(
    watchdog_budget_us=200.0,
    max_retries=2,
    degrade_queue_depth=4,
    restore_queue_depth=1,
    degrade_factor=0.5,
)
EXHAUST = ResiliencePolicy(watchdog_budget_us=120.0, max_retries=0)

#: the paper's serving shape, and jobs that fill it (~27 µs a query).
PAPER_SHAPE = dict(n_slots=16, n_parallel=8)
PAPER_JOBS = dict(n_parallel=8, dur=22.0, jitter=6.0)

#: name -> overrides of the default schedule (4 slots x 2 CTAs, 24 jobs,
#: telemetry on).  ``deadline`` attaches a per-query drop deadline,
#: ``priorities`` cycles ``ManagedQuery.priority`` over the jobs,
#: ``max_queue_depth`` arms shedding.
FROZEN_AT_A2FD882 = {
    "healthy": dict(),
    "healthy-multithread": dict(engine=dict(host_threads=3)),
    "naive-state-mode": dict(engine=dict(state_mode="naive")),
    "gpu-merge": dict(engine=dict(merge_on_cpu=False)),
    "faults+policy": dict(faults=FAULTS, resilience=POLICY),
    "faults-default-policy": dict(faults=FAULTS),
    "retry-exhaustion": dict(
        faults=FaultPlan(
            slot_faults=[SlotFault(slot_id=0, on_dispatch=1, kind="hang")]
        ),
        resilience=EXHAUST,
    ),
    "degrade-overload": dict(
        jobs=dict(n=32, spread=0.5),
        resilience=ResiliencePolicy(
            degrade_queue_depth=3, restore_queue_depth=1, degrade_factor=0.4
        ),
    ),
    "deadline-drops": dict(
        engine=dict(n_slots=2),
        jobs=dict(n=16, dur=60.0, spread=1.0),
        deadline=250.0,
        telemetry=False,
    ),
}
#: generated at ``c52a86c``; these also freeze the link's float sums.
LINK_SUMS = {
    "poisson-sparse-16x8": dict(
        engine=PAPER_SHAPE, jobs=dict(PAPER_JOBS, n=64, poisson_qps=3_000)
    ),
    "poisson-knee-16x8": dict(
        engine=PAPER_SHAPE, jobs=dict(PAPER_JOBS, n=96, poisson_qps=450_000)
    ),
    "poisson-overload-16x8": dict(
        engine=PAPER_SHAPE, jobs=dict(PAPER_JOBS, n=96, poisson_qps=700_000)
    ),
    "gpu-merge-16x8": dict(
        engine=dict(PAPER_SHAPE, merge_on_cpu=False),
        jobs=dict(PAPER_JOBS, n=64, poisson_qps=450_000),
    ),
    "sparse-integer-arrivals-3-threads": dict(
        engine=dict(n_slots=6, host_threads=3),
        jobs=dict(n=64, poisson_qps=40_000, integer_us=True),
    ),
    "queue-depth-shedding": dict(
        jobs=dict(n=48, spread=4.0), max_queue_depth=4
    ),
    "hybrid-tier": dict(jobs=dict(n=32, hybrid=True)),
    "hybrid-tier-pcie-stall": dict(
        jobs=dict(n=32, hybrid=True),
        faults=FaultPlan(pcie_stalls=[PCIeStall(start_us=40.0, duration_us=15.0)]),
    ),
    "mixed-priority": dict(jobs=dict(n=40, spread=1.0), priorities=(0, 2, 1)),
}
SCENARIOS = {**FROZEN_AT_A2FD882, **LINK_SUMS}


def mkjobs(
    n=24, dur=30.0, n_parallel=2, spread=2.0, jitter=4.0, seed=5,
    poisson_qps=None, integer_us=False, hybrid=False,
):
    """``n`` jobs arriving ``spread`` µs apart — or, with ``poisson_qps``,
    as a Poisson process conditioned on its count (sorted uniform draws
    over ``n / rate``), truncated to whole microseconds by ``integer_us``.
    ``hybrid`` gives every job a candidate-pool push and a CPU refine hop."""
    rng = np.random.default_rng(seed)
    arrivals = [i * spread for i in range(n)]
    if poisson_qps is not None:
        # its own stream: the duration draws below stay as they were
        draws = np.random.default_rng(seed + 1).uniform(0.0, n / poisson_qps * 1e6, n)
        arrivals = np.sort(np.floor(draws) if integer_us else draws).tolist()
    extra = [{} for _ in range(n)]
    if hybrid:
        refine = np.random.default_rng(seed + 2).uniform(3.0, 9.0, n).tolist()
        extra = [dict(host_us=h, result_entries=32) for h in refine]
    return [
        QueryJob(
            i,
            arrivals[i],
            tuple(dur + float(rng.uniform(-jitter, jitter)) for _ in range(n_parallel)),
            64,
            8,
            **extra[i],
        )
        for i in range(n)
    ]


def build(scenario: dict):
    """One scenario's ``(engine, jobs, managed, max_queue_depth, telemetry)``."""
    kw = {"n_slots": 4, "n_parallel": 2, "k": 8, **scenario.get("engine", {})}
    if "tick_mode" in {f.name for f in dataclasses.fields(DynamicBatchConfig)}:
        kw["tick_mode"] = "loop"
    tel = Telemetry(MetricsRegistry()) if scenario.get("telemetry", True) else None
    eng = DynamicBatchEngine(
        RTX_A6000,
        CM,
        DynamicBatchConfig(**kw),
        telemetry=tel,
        faults=scenario.get("faults"),
        resilience=scenario.get("resilience"),
    )
    jobs = mkjobs(**scenario.get("jobs", {}))
    managed = None
    if "deadline" in scenario:
        managed = [
            ManagedQuery(j, deadline_us=j.arrival_us + scenario["deadline"])
            for j in jobs
        ]
    elif "priorities" in scenario:
        cycle = scenario["priorities"]
        managed = [
            ManagedQuery(j, priority=cycle[i % len(cycle)])
            for i, j in enumerate(jobs)
        ]
    return eng, jobs, managed, scenario.get("max_queue_depth"), tel


def serve(scenario: dict):
    """Run one scenario; returns ``(ServeReport, Telemetry | None)``."""
    eng, jobs, managed, max_queue_depth, tel = build(scenario)
    return eng.serve(jobs, managed=managed, max_queue_depth=max_queue_depth), tel


def scheduler_run(name: str) -> _ServeRun:
    """Scenario ``name`` as the un-run scheduler ``serve`` would build, for
    tests that step it event by event or count its events."""
    eng, jobs, managed, max_queue_depth, _ = build(SCENARIOS[name])
    jobs = sorted(jobs, key=lambda j: (j.arrival_us, j.query_id))
    return _ServeRun(eng, jobs, managed, max_queue_depth)


def canon(x):
    """JSON-safe form that keeps every float bit: floats as ``float.hex``."""
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"unexpected {type(x).__name__} in a serve report")


def freeze(report, tel, link_sums: bool = False) -> dict:
    """Everything the schedule determines, in fixture form."""
    pcie = {
        "transactions": report.pcie.transactions,
        "bytes_moved": report.pcie.bytes_moved,
        "by_tag": report.pcie.by_tag,
    }
    if link_sums:
        pcie["busy_us"] = report.pcie.busy_us
        pcie["stall_us"] = report.pcie.stall_us
    out = {
        "records": [canon(r.__dict__) for r in report.records],
        "makespan_us": canon(report.makespan_us),
        "gpu_cta_busy_us": canon(report.gpu_cta_busy_us),
        "host_busy_us": canon(report.host_busy_us),
        "pcie": canon(pcie),
        "meta": canon({k: v for k, v in report.meta.items() if k != "config"}),
    }
    if tel is not None:
        out["telemetry_sha256"] = hashlib.sha256(
            tel.to_prometheus().encode()
        ).hexdigest()
        out["telemetry_doc_sha256"] = hashlib.sha256(
            json.dumps(tel.to_dict(max_spans=None), sort_keys=True).encode()
        ).hexdigest()
    return out


def frozen(name: str) -> dict:
    """Scenario ``name`` served now, in fixture form."""
    return freeze(*serve(SCENARIOS[name]), link_sums=name in LINK_SUMS)


def main() -> None:
    doc = {name: frozen(name) for name in SCENARIOS}
    # one scenario per line keeps the record lists out of the diff
    body = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(doc[name], sort_keys=True)}"
        for name in sorted(doc)
    )
    FIXTURE.write_text("{\n" + body + "\n}\n")
    print(f"wrote {FIXTURE} ({len(doc)} scenarios, "
          f"{sum(len(d['records']) for d in doc.values())} records)")


if __name__ == "__main__":
    main()

"""Generator of ``tests/golden/schedules.json``.

The fixture freezes what ``DynamicBatchEngine.serve`` produced at commit
``a2fd882`` under ``tick_mode="loop"`` — the per-slot reference host pass,
the last commit that had one — on nine small schedules: healthy, three
host threads, naive state mode, GPU merge, faults with and without an
explicit policy, retry exhaustion, overload degradation, deadline drops.
``tests/test_soa_tick_parity.py`` checks the one remaining host pass
against it, which makes "the scheduler did not move" a tier-1 fact.

``tick_mode`` is passed only while ``DynamicBatchConfig`` still has the
field, so the script reproduces the fixture on either side of its removal:

    PYTHONPATH=src python -m tests.golden.make_schedules
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
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

#: name -> overrides of the default schedule (4 slots x 2 CTAs, 24 jobs,
#: telemetry on).  ``deadline`` attaches a per-query drop deadline.
SCENARIOS = {
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


def mkjobs(n=24, dur=30.0, n_parallel=2, spread=2.0, jitter=4.0, seed=5):
    rng = np.random.default_rng(seed)
    return [
        QueryJob(
            i,
            i * spread,
            tuple(dur + float(rng.uniform(-jitter, jitter)) for _ in range(n_parallel)),
            64,
            8,
        )
        for i in range(n)
    ]


def serve(scenario: dict):
    """Run one scenario; returns ``(ServeReport, Telemetry | None)``."""
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
    return eng.serve(jobs, managed=managed), tel


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


def freeze(report, tel) -> dict:
    """Everything the schedule determines, in fixture form."""
    out = {
        "records": [canon(r.__dict__) for r in report.records],
        "makespan_us": canon(report.makespan_us),
        "gpu_cta_busy_us": canon(report.gpu_cta_busy_us),
        "host_busy_us": canon(report.host_busy_us),
        "pcie": canon(
            {
                "transactions": report.pcie.transactions,
                "bytes_moved": report.pcie.bytes_moved,
                "by_tag": report.pcie.by_tag,
            }
        ),
        "meta": canon({k: v for k, v in report.meta.items() if k != "config"}),
    }
    if tel is not None:
        out["telemetry_sha256"] = hashlib.sha256(
            tel.to_prometheus().encode()
        ).hexdigest()
    return out


def main() -> None:
    doc = {name: freeze(*serve(sc)) for name, sc in SCENARIOS.items()}
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

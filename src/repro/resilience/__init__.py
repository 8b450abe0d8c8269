"""Fault injection and resilience for the ALGAS serving stack.

The subsystem has three parts (docs/robustness.md):

* :mod:`repro.resilience.faults` — deterministic, seeded fault plans
  (slot hangs/corruption, CTA stragglers, PCIe stalls, shard kills) and
  the injector that fires them inside the dynamic batcher;
* :mod:`repro.resilience.policy` — the defense knobs (watchdog, retries,
  hedging, shard quorum, overload degradation) and their accounting;
* :mod:`repro.resilience.chaos` — a chaos-experiment runner: serve a
  workload under a named plan and summarize survival (the CLI ``chaos``
  subcommand and the CI chaos smoke target drive it).

Quick tour::

    from repro import ALGASSystem, ServeConfig
    from repro.resilience import FaultPlan, SlotFault, ResiliencePolicy

    plan = FaultPlan(slot_faults=(SlotFault(0, "hang"),))
    cfg = ServeConfig(faults=plan, resilience=ResiliencePolicy(
        watchdog_budget_us=500.0))
    report = system.serve(queries, cfg)
    print(report.serve.meta["resilience"])   # kills / retries / ...
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": ("ChaosResult", "load_plan", "run_chaos"),
    ".faults": (
        "NAMED_PLANS",
        "FaultInjector",
        "FaultPlan",
        "PCIeStall",
        "ShardFault",
        "SlotFault",
        "UpdateFault",
        "named_plan",
    ),
    ".policy": ("DEFAULT_POLICY", "ResiliencePolicy", "ResilienceStats", "merge_resilience_meta"),
})

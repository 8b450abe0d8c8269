"""Production-traffic layer: open-loop load, admission control, autoscaling.

See docs/load_testing.md.  The pieces:

* :mod:`repro.data.workload` — declarative arrival processes
  (Poisson/diurnal/bursty/trace) and :class:`TrafficSpec` admission
  contracts, accepted by every ``serve()`` via ``ServeConfig.workload``;
* :class:`~repro.load.driver.FleetDriver` — event-driven replica fleet
  with a central admission queue;
* :class:`~repro.load.autoscaler.Autoscaler` — queue-depth scale policy;
* :mod:`repro.load.harness` — offered-load sweeps, latency-vs-QPS curves,
  and the max-sustainable-QPS frontier (``repro load`` CLI,
  ``BENCH_load.json``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".autoscaler": ("Autoscaler", "AutoscalerPolicy", "ScaleDecision"),
    ".driver": ("FleetConfig", "FleetDriver"),
    ".harness": (
        "LoadPoint",
        "max_sustainable_qps",
        "replay_jobs",
        "run_load_point",
        "sweep_load",
        "write_bench_load",
    ),
})

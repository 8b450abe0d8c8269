"""repro — reproduction of ALGAS (IPPS 2025).

A low-latency GPU graph-ANNS serving system — dynamic batching on a
persistent kernel, beam-extend search, GPU-CPU cooperative TopK merge, and
adaptive GPU tuning — reproduced in Python on a discrete-event GPU
simulator substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import load_dataset, build_cagra, ALGASSystem
    ds = load_dataset("sift1m-mini", n=8000)
    graph = build_cagra(ds.base, graph_degree=32, metric=ds.metric)
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=16, l_total=128)
    report = system.serve(ds.queries)
    print(report.mean_latency_us, report.throughput_qps)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".baselines": ("CAGRASystem", "GANNSSystem", "IVFSystem"),
    ".core": (
        "ALGASSystem",
        "ReplicatedServer",
        "ServeConfig",
        "ServeReport",
        "ShardedServer",
        "SystemReport",
        "tune",
    ),
    ".data": ("Dataset", "load_dataset", "recall"),
    ".gpusim": ("RTX_A6000", "CostModel", "CostParams", "DeviceProperties"),
    ".graphs": ("GraphIndex", "build_cagra", "build_nsw"),
    ".hybrid": ("HybridSystem", "PilotIndex", "build_pilot"),
    ".resilience": ("FaultPlan", "ResiliencePolicy", "named_plan", "run_chaos"),
    ".search": ("BeamConfig", "IVFFlatIndex"),
    ".telemetry": ("MetricsRegistry", "Telemetry"),
})
__all__.append("__version__")

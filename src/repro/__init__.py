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

from .baselines import CAGRASystem, GANNSSystem, IVFSystem
from .core import (
    ALGASSystem,
    ReplicatedServer,
    ServeConfig,
    ServeReport,
    ShardedServer,
    SystemReport,
    tune,
)
from .data import Dataset, load_dataset, recall
from .gpusim import RTX_A6000, CostModel, CostParams, DeviceProperties
from .graphs import GraphIndex, build_cagra, build_nsw
from .hybrid import HybridSystem, PilotIndex, build_pilot
from .resilience import FaultPlan, ResiliencePolicy, named_plan, run_chaos
from .search import BeamConfig, IVFFlatIndex
from .telemetry import MetricsRegistry, Telemetry

__version__ = "1.0.0"

__all__ = [
    "CAGRASystem",
    "GANNSSystem",
    "IVFSystem",
    "ALGASSystem",
    "ReplicatedServer",
    "ShardedServer",
    "ServeConfig",
    "ServeReport",
    "SystemReport",
    "Telemetry",
    "MetricsRegistry",
    "FaultPlan",
    "ResiliencePolicy",
    "named_plan",
    "run_chaos",
    "tune",
    "Dataset",
    "load_dataset",
    "recall",
    "RTX_A6000",
    "CostModel",
    "CostParams",
    "DeviceProperties",
    "GraphIndex",
    "build_cagra",
    "build_nsw",
    "HybridSystem",
    "PilotIndex",
    "build_pilot",
    "BeamConfig",
    "IVFFlatIndex",
    "__version__",
]

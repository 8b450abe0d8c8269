"""Benchmark harness: cached runners and per-figure experiment definitions."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("experiments", "figures"),
    ".profiling": ("profile_call",),
    ".runner": (
        "BENCH_DATASETS",
        "SCALE",
        "BenchScale",
        "cached_search",
        "get_dataset",
        "get_graph",
        "make_system",
        "scheduled_report",
        "serve_ivf",
        "serve_system",
    ),
})

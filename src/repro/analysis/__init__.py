"""Analysis utilities: step/latency stats, recall curves, text reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".export": ("records_to_csv", "rows_to_csv", "summary_to_json"),
    ".recall": ("OperatingPoint", "point_at_recall", "sweep_candidate_sizes"),
    ".report": ("banner", "format_series", "format_table"),
    ".timeline": ("ascii_slot_timeline", "ascii_timeline"),
    ".stats": (
        "StepStats",
        "batch_step_spread",
        "bubble_waste_rate",
        "latency_percentiles",
        "sort_time_fraction",
        "step_statistics",
    ),
})

"""Serving observability: metrics registry, spans, exposition, hooks.

The telemetry subsystem instruments the query lifecycle end to end
(admission → slot occupancy → search → host merge → completion) without
touching the hot path by default — every component takes an optional
:class:`Telemetry` and falls back to the no-op :data:`NULL_TELEMETRY`.

Quick tour::

    from repro import ALGASSystem, ServeConfig, Telemetry

    tel = Telemetry()
    report = system.serve(queries, ServeConfig(telemetry=tel))
    print(tel.to_prometheus())         # Prometheus text exposition
    tel.to_json("metrics.json")        # JSON document (metrics + spans)
    print(tel.slot_timeline())         # ASCII per-slot occupancy

See docs/observability.md for the metric catalog and span lifecycle.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".exposition": (
        "registry_to_dict",
        "telemetry_document",
        "to_prometheus_text",
        "write_metrics",
    ),
    ".hooks": ("NULL_TELEMETRY", "NullTelemetry", "Telemetry"),
    ".registry": ("Buckets", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".spans": ("Span", "SpanLog"),
})

"""Exposition formats: metrics registry → JSON document / Prometheus text.

Two consumers, two formats:

* **JSON** (``registry_to_dict`` / ``telemetry_document``) — the bench
  runners and ``python -m repro serve --metrics-out`` write this; it keeps
  full structure (bucket maps, label sets, span list, slot-occupancy
  summary).
* **Prometheus text format** (``to_prometheus_text``) — the standard
  ``# HELP`` / ``# TYPE`` line protocol, so the registry can be scraped or
  diffed with stock tooling.  Histograms expose cumulative ``_bucket``
  series plus ``_sum`` / ``_count``, counters a bare sample line.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "registry_to_dict",
    "telemetry_document",
    "to_prometheus_text",
    "write_metrics",
]


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(text: str, quote: bool = True) -> str:
    """Text-format escaping: ``\\`` and newline always, ``"`` in label
    values (``quote``) but not in ``# HELP`` text."""
    text = text.replace("\\", "\\\\").replace("\n", "\\n")
    return text.replace('"', '\\"') if quote else text


def _labels_text(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = list(labels.items()) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def registry_to_dict(registry: MetricsRegistry) -> dict:
    """JSON-ready dict: one family entry per metric name."""
    families: dict[str, dict] = {}
    for name, kind, help, metrics in registry.collect():
        series = []
        for m in metrics:
            entry: dict = {"labels": dict(m.labels)}
            if isinstance(m, Counter):
                entry["value"] = m.value
            elif isinstance(m, Gauge):
                entry["value"] = m.value
                if m.high_water != -math.inf:
                    entry["high_water"] = m.high_water
            elif isinstance(m, Histogram):
                buckets = {_fmt(b): c for b, c in zip(m.bounds, m.cumulative())}
                buckets["+Inf"] = m.count
                entry.update(
                    {"buckets": buckets, "sum": m.sum, "count": m.count}
                )
            series.append(entry)
        families[name] = {"type": kind, "help": help, "series": series}
    return families


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, kind, help, metrics in registry.collect():
        if help:
            lines.append(f"# HELP {name} {_escape(help, quote=False)}")
        lines.append(f"# TYPE {name} {kind}")
        for m in metrics:
            if isinstance(m, Histogram):
                cum = m.cumulative()
                for bound, c in zip(m.bounds, cum):
                    le = _labels_text(m.labels, (("le", _fmt(bound)),))
                    lines.append(f"{name}_bucket{le} {c}")
                le = _labels_text(m.labels, (("le", "+Inf"),))
                lines.append(f"{name}_bucket{le} {m.count}")
                lines.append(f"{name}_sum{_labels_text(m.labels)} {_fmt(m.sum)}")
                lines.append(f"{name}_count{_labels_text(m.labels)} {m.count}")
            else:
                lines.append(f"{name}{_labels_text(m.labels)} {_fmt(m.value)}")
    return "\n".join(lines) + "\n"


def _slot_occupancy_summary(spans) -> dict:
    """Per-slot busy time / interval count from ``slot`` occupancy spans."""
    per_slot: dict[str, dict] = {}
    horizon = 0.0
    for s in spans:
        if s.name != "slot" or s.slot_id is None:
            continue
        entry = per_slot.setdefault(
            str(s.slot_id), {"busy_us": 0.0, "queries": 0}
        )
        entry["busy_us"] += s.duration_us
        entry["queries"] += 1
        horizon = max(horizon, s.end_us)
    for entry in per_slot.values():
        entry["utilization"] = entry["busy_us"] / horizon if horizon > 0 else 0.0
    return {"horizon_us": horizon, "slots": per_slot}


def telemetry_document(telemetry, max_spans: int | None = None) -> dict:
    """Full JSON document for one :class:`~repro.telemetry.hooks.Telemetry`.

    Contains the metric families, a slot-occupancy summary derived from the
    occupancy spans, and the span list (optionally truncated to
    ``max_spans``, earliest first, with the truncation recorded).
    """
    spans = list(telemetry.spans)
    doc: dict = {
        "metrics": registry_to_dict(telemetry.registry),
        "slot_occupancy": _slot_occupancy_summary(spans),
        "n_spans": len(spans),
    }
    if max_spans is not None and len(spans) > max_spans:
        doc["spans"] = [s.to_dict() for s in spans[:max_spans]]
        doc["spans_truncated"] = len(spans) - max_spans
    else:
        doc["spans"] = [s.to_dict() for s in spans]
    return doc


def write_metrics(telemetry, path: str | os.PathLike, max_spans: int | None = 10_000) -> Path:
    """Write the telemetry document to ``path``.

    The suffix picks the format: ``.prom`` / ``.txt`` → Prometheus text
    exposition of the registry, anything else → the JSON document.
    """
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(to_prometheus_text(telemetry.registry))
    else:
        path.write_text(
            json.dumps(telemetry_document(telemetry, max_spans=max_spans), indent=2)
            + "\n"
        )
    return path

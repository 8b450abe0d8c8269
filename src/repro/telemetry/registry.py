"""Metric primitives: counters, gauges, histograms, and their registry.

The serving observability layer (docs/observability.md) needs three metric
kinds, matching the Prometheus data model so the exposition formats
(:mod:`repro.telemetry.exposition`) are standard:

* :class:`Counter` — monotonically increasing totals (queries dispatched,
  deadline drops, slot state transitions);
* :class:`Gauge` — last-written values with a high-water mark (queue
  depth, makespan, throughput of the most recent serve);
* :class:`Histogram` — bucketed distributions with configurable bucket
  schemes (per-phase latencies: queue wait, search, host merge).

A :class:`MetricsRegistry` owns every metric, deduplicated by
``(name, labels)``; families (all label variants of one name) share a type
and help string.  Everything is allocation-light plain Python — the hot
serving loops only touch these objects when telemetry is enabled.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left

__all__ = ["Buckets", "Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Buckets:
    """Bucket-scheme constructors for :class:`Histogram`.

    Bounds are *upper* bounds (Prometheus ``le`` semantics); an implicit
    ``+Inf`` bucket always terminates the scheme.
    """

    @staticmethod
    def linear(start: float, width: float, count: int) -> tuple[float, ...]:
        """``count`` buckets: start, start+width, ... (evenly spaced)."""
        if count <= 0 or width <= 0:
            raise ValueError("count and width must be positive")
        return tuple(start + i * width for i in range(count))

    @staticmethod
    def exponential(start: float, factor: float, count: int) -> tuple[float, ...]:
        """``count`` buckets: start, start*factor, ... (geometric)."""
        if count <= 0 or start <= 0 or factor <= 1.0:
            raise ValueError("need count > 0, start > 0, factor > 1")
        return tuple(start * factor**i for i in range(count))

    #: default scheme for microsecond latencies: 1 µs .. ~32 ms, power of 2.
    LATENCY_US: tuple[float, ...] = ()  # filled in below


Buckets.LATENCY_US = Buckets.exponential(1.0, 2.0, 16)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value, with a high-water mark for burst metrics."""

    __slots__ = ("name", "labels", "value", "high_water")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.high_water = -math.inf

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.high_water:
            self.high_water = self.value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram:
    """Bucketed distribution (upper-bound buckets + implicit ``+Inf``)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, name: str, labels: dict[str, str], bounds: tuple[float, ...]):
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def approx_quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the hit bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        for bound, cum in zip(self.bounds, self.cumulative()):
            if cum >= target:
                return bound
        return math.inf


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Owns all metrics, deduplicated by ``(name, labels)``.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling with
    the same name and labels returns the same object, so instrumentation
    sites never need to pre-declare metrics (though :class:`Telemetry
    <repro.telemetry.hooks.Telemetry>` pre-registers the core catalog so
    zero-valued metrics still appear in expositions).
    """

    def __init__(self):
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        #: name -> (kind, help, extra) with extra = bucket bounds for histograms
        self._families: dict[str, tuple[str, str, tuple | None]] = {}

    # ------------------------------------------------------------ factories
    def _get(self, kind: str, name: str, help: str, labels: dict, extra=None):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        fam = self._families.get(name)
        if metric is None:
            # A new child (or family): validate and coerce only here.
            if fam is None and not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            for k in labels:
                if not _LABEL_RE.match(k):
                    raise ValueError(f"invalid label name {k!r}")
            labels = {k: str(v) for k, v in labels.items()}
            key = (name, _label_key(labels))
            metric = self._metrics.get(key)
        if fam is None:
            fam = self._families[name] = (kind, help, extra)
        else:
            if fam[0] != kind:
                raise ValueError(f"metric {name!r} already registered as {fam[0]}")
            if kind == "histogram" and extra is not None and fam[2] != extra:
                raise ValueError(f"histogram {name!r} re-registered with different buckets")
            if help and not fam[1]:
                self._families[name] = (kind, help, fam[2])
        if metric is None:
            if kind == "counter":
                metric = Counter(name, labels)
            elif kind == "gauge":
                metric = Gauge(name, labels)
            else:
                metric = Histogram(name, labels, fam[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        fam = self._families.get(name)
        bounds = tuple(buckets) if buckets is not None else (
            fam[2] if fam is not None else Buckets.LATENCY_US
        )
        return self._get("histogram", name, help, labels, extra=bounds)

    # ------------------------------------------------------------- merging
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        The parallel cluster fan-in (docs/performance.md): each worker
        serves its shard/replica into a *fresh* registry under disjoint
        ``shard``/``gpu`` labels, and the parent folds the workers back in
        label-scoped — counters add, histograms add bucket counts / sum /
        count, gauges take the source value and the max high-water mark.
        Zero-valued metrics are still created, so the merged exposition is
        identical to a sequential serve writing through ``scoped()`` views
        of one shared registry.
        """
        for name, (kind, help, extra) in other._families.items():
            fam = self._families.get(name)
            if fam is None:
                self._families[name] = (kind, help, extra)
            elif fam[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam[0]}"
                )
        for (name, _), m in other._metrics.items():
            kind, help, extra = other._families[name]
            labels = dict(m.labels)
            if kind == "counter":
                dst = self.counter(name, help, **labels)
                if m.value:
                    dst.inc(m.value)
            elif kind == "gauge":
                dst = self.gauge(name, help, **labels)
                if m.high_water != -math.inf:  # source gauge was ever set
                    dst.value = m.value
                    dst.high_water = max(dst.high_water, m.high_water)
            else:
                dst = self.histogram(name, help, buckets=m.bounds, **labels)
                if dst.bounds != m.bounds:
                    raise ValueError(
                        f"histogram {name!r} merge with different buckets"
                    )
                for i, c in enumerate(m.bucket_counts):
                    dst.bucket_counts[i] += c
                dst.sum += m.sum
                dst.count += m.count

    # ------------------------------------------------------------ iteration
    def collect(self):
        """Yield ``(name, kind, help, [metrics])`` sorted by name then labels."""
        by_name: dict[str, list] = {}
        for (name, _), metric in self._metrics.items():
            by_name.setdefault(name, []).append(metric)
        for name in sorted(by_name):
            kind, help, _ = self._families[name]
            metrics = sorted(by_name[name], key=lambda m: _label_key(m.labels))
            yield name, kind, help, metrics

    def get(self, name: str, **labels: str):
        """Fetch an existing metric or None (no create)."""
        return self._metrics.get((name, _label_key({k: str(v) for k, v in labels.items()})))

    def __len__(self) -> int:
        return len(self._metrics)

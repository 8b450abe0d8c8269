"""The `Telemetry` facade: instrumentation hooks for the serving stack.

Every instrumented component (:class:`~repro.core.query_manager.QueryManager`,
:class:`~repro.core.merge.HostMerger`, both batching engines, the systems
and cluster servers) takes an optional ``telemetry`` object and calls these
hooks.  Slot state transitions are the exception: the slot bank counts
them in a table and the dynamic engine folds it in once per serve
(:meth:`Telemetry.slot_transitions`).  The default is
:data:`NULL_TELEMETRY`, whose hooks are all no-ops, so the hot path and the
existing benchmarks pay nothing unless observability is requested.

A telemetry object bundles a :class:`~repro.telemetry.registry.MetricsRegistry`
and a :class:`~repro.telemetry.spans.SpanLog`; ``scoped(**labels)`` returns a
view that shares both but stamps extra labels on every metric — the cluster
servers use this for per-shard/per-replica aggregation into one registry.

Metric catalog: see docs/observability.md (kept in sync with ``_CATALOG``).
"""

from __future__ import annotations

import inspect
import json
import os

from .registry import Buckets, Counter, MetricsRegistry
from .spans import SpanLog

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]

#: depth buckets for the queue-depth distribution (0..2048, powers of two).
_DEPTH_BUCKETS = (0.0,) + Buckets.exponential(1.0, 2.0, 12)

#: the always-present metric families: (kind, name, help, histogram buckets)
_CATALOG: tuple[tuple[str, str, str, tuple | None], ...] = (
    ("counter", "algas_queries_submitted_total",
     "queries admitted to the serving queue", None),
    ("counter", "algas_queries_dispatched_total",
     "queries handed to a slot or batch", None),
    ("counter", "algas_queries_completed_total",
     "queries whose merged results were returned", None),
    ("counter", "algas_queries_dropped_total",
     "queries dropped past their deadline before dispatch", None),
    ("counter", "algas_queries_shed_total",
     "queries shed at admission by the queue-depth limit", None),
    ("gauge", "algas_queue_depth",
     "ready-queue depth (last sampled; high_water in JSON)", None),
    ("histogram", "algas_queue_depth_observed",
     "ready-queue depth sampled at each admission/dispatch", _DEPTH_BUCKETS),
    ("histogram", "algas_queue_wait_us",
     "arrival to dispatch wait per query (us)", Buckets.LATENCY_US),
    ("histogram", "algas_search_us",
     "GPU search time per query: first CTA start to last CTA end (us)",
     Buckets.LATENCY_US),
    ("histogram", "algas_host_merge_us",
     "host-side TopK merge cost per merge (us)", Buckets.LATENCY_US),
    ("histogram", "algas_service_latency_us",
     "dispatch to completion per query (us)", Buckets.LATENCY_US),
    ("histogram", "algas_e2e_latency_us",
     "arrival to completion per query (us)", Buckets.LATENCY_US),
    ("histogram", "algas_bubble_us",
     "per-query idle time between own GPU finish and return (us)",
     Buckets.LATENCY_US),
    # ---- resilience layer (docs/robustness.md) -------------------------
    ("counter", "algas_watchdog_kills_total",
     "slots force-retired by the no-progress watchdog", None),
    ("counter", "algas_query_retries_total",
     "queries re-dispatched after a watchdog kill", None),
    ("counter", "algas_retry_exhausted_total",
     "queries failed after exhausting their retry budget", None),
    ("counter", "algas_hedges_total",
     "hedge requests sent to a backup replica", None),
    ("counter", "algas_hedge_wins_total",
     "hedges that answered before (or instead of) the primary", None),
    ("counter", "algas_partial_answers_total",
     "queries answered from a shard quorum subset", None),
    ("counter", "algas_degraded_dispatches_total",
     "queries dispatched with degraded (shrunken) work under overload", None),
    ("counter", "algas_degraded_windows_total",
     "overload degradation windows entered", None),
    # ---- load / autoscaling layer (docs/load_testing.md) ---------------
    ("gauge", "algas_replicas_active",
     "replicas currently active in the fleet (autoscaler-controlled)", None),
    ("counter", "algas_scale_events_total",
     "autoscaler scale decisions applied (up or down)", None),
)


class Telemetry:
    """Live telemetry: a metrics registry + span log + lifecycle hooks.

    Every metric child a hook writes is resolved once — the catalog's when
    the object is built, a per-slot or per-kind child on its first use —
    so an observation is one attribute update, never a registry lookup.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        spans: SpanLog | None = None,
        labels: dict[str, str] | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanLog()
        self.labels = {k: str(v) for k, v in (labels or {}).items()}
        #: the catalog's child for :attr:`labels`, by family name.
        self._m = {}
        for kind, name, help, buckets in _CATALOG:
            if kind == "histogram":
                child = self.registry.histogram(name, help, buckets=buckets, **self.labels)
            else:
                child = getattr(self.registry, kind)(name, help, **self.labels)
            self._m[name] = child
        #: slot id -> (busy-time, queries) counters, bound on first use.
        self._per_slot: dict[int, tuple[Counter, Counter]] = {}
        #: fault kind -> counter, bound on first use.
        self._faults: dict[str, Counter] = {}

    def scoped(self, **labels: str) -> "Telemetry":
        """A view sharing this registry/span log with extra constant labels."""
        return Telemetry(self.registry, self.spans, {**self.labels, **labels})

    def merge_from(self, other: "Telemetry") -> None:
        """Fold a worker's telemetry (registry + spans) into this one.

        The parallel cluster serves hand each worker a *fresh* Telemetry
        scoped with its shard/replica label; merging them back in shard
        order reproduces exactly what sequential ``scoped()`` views would
        have written into the shared registry and span log.
        """
        if other is None or not other.enabled:
            return
        self.registry.merge_from(other.registry)
        self.spans.merge_from(other.spans)

    # ------------------------------------------------------ query lifecycle
    def query_submitted(self, n: int = 1) -> None:
        self._m["algas_queries_submitted_total"].inc(n)

    def queue_depth(self, depth: int) -> None:
        self._m["algas_queue_depth"].set(depth)
        self._m["algas_queue_depth_observed"].observe(depth)

    def query_dispatched(self, query_id: int, arrival_us: float, dispatch_us: float) -> None:
        m = self._m
        m["algas_queries_dispatched_total"].inc()
        m["algas_queue_wait_us"].observe(max(0.0, dispatch_us - arrival_us))
        self.spans.record("queue", arrival_us, dispatch_us, query_id, None, self.labels)

    def query_completed(self, record, slot: int | None = None) -> None:
        """Observe a finished :class:`~repro.core.serving.QueryRecord`
        served in ``slot`` (None: a static batch or a fleet replica)."""
        m = self._m
        if slot is not None:
            pair = self._per_slot.get(slot)
            if pair is None:
                sid, reg = str(slot), self.registry
                pair = self._per_slot[slot] = (
                    reg.counter("algas_slot_busy_us_total", "per-slot occupied time (us)",
                                slot=sid, **self.labels),
                    reg.counter("algas_slot_queries_total", "queries served per slot",
                                slot=sid, **self.labels),
                )
            pair[0].inc(max(0.0, record.complete_us - record.dispatch_us))
            pair[1].inc()
        m["algas_queries_completed_total"].inc()
        m["algas_search_us"].observe(
            max(0.0, record.gpu_end_us - record.gpu_start_us)
        )
        m["algas_service_latency_us"].observe(record.service_latency_us)
        m["algas_e2e_latency_us"].observe(record.e2e_latency_us)
        m["algas_bubble_us"].observe(record.bubble_us)
        self.spans.record_query(record, slot, self.labels)

    def query_dropped(self, query_id: int, arrival_us: float, deadline_us: float) -> None:
        """One queued query dropped past its deadline, before dispatch."""
        self._m["algas_queries_dropped_total"].inc()
        self.spans.record("dropped", arrival_us, deadline_us, query_id, None, self.labels)

    def query_shed(self, query_id: int, arrival_us: float, depth: int) -> None:
        """One arrival rejected by the queue-depth admission limit."""
        self._m["algas_queries_shed_total"].inc()
        self.spans.record("shed", arrival_us, arrival_us, query_id, None, self.labels)

    # ---------------------------------------------------------------- slots
    def slot_transitions(self, counts: dict[tuple[str, str], int]) -> None:
        """Fold one serve's slot state transitions, ``{(from, to): n}``
        (:meth:`~repro.core.slots.SlotBank.transition_counts`)."""
        for (old, new), n in counts.items():
            self.registry.counter(
                "algas_slot_transitions_total",
                "slot state-machine transitions (per CTA for GPU-side FINISH)",
                **{"from": old, "to": new, **self.labels},
            ).inc(n)

    # ----------------------------------------------------------- host merge
    def merge_observed(self, n_lists: int, cpu_us: float) -> None:
        self._m["algas_host_merge_us"].observe(cpu_us)

    # ----------------------------------------------------------- resilience
    def watchdog_kill(self, slot_id: int, query_id: int, now_us: float) -> None:
        """The watchdog force-retired ``slot_id`` holding ``query_id``."""
        self._m["algas_watchdog_kills_total"].inc()
        self.spans.record("watchdog-kill", now_us, now_us, query_id, slot_id, self.labels)

    def query_retried(self, query_id: int, attempt: int, now_us: float) -> None:
        self._m["algas_query_retries_total"].inc()
        self.spans.record("retry", now_us, now_us, query_id, None,
                          {"attempt": str(attempt), **self.labels})

    def retry_exhausted(self, query_id: int) -> None:
        self._m["algas_retry_exhausted_total"].inc()

    def hedge_fired(self, query_id: int, fire_us: float) -> None:
        self._m["algas_hedges_total"].inc()
        self.spans.record("hedge", fire_us, fire_us, query_id, None, self.labels)

    def hedge_won(self, query_id: int) -> None:
        self._m["algas_hedge_wins_total"].inc()

    def partial_answer(self, query_id: int, n_included: int, n_total: int) -> None:
        self._m["algas_partial_answers_total"].inc()

    def degraded_dispatch(self, query_id: int) -> None:
        self._m["algas_degraded_dispatches_total"].inc()

    def degraded_window_entered(self, now_us: float, depth: int) -> None:
        self._m["algas_degraded_windows_total"].inc()

    def degraded_window_exited(self, start_us: float, end_us: float) -> None:
        self.spans.record("degraded", start_us, end_us, attrs=self.labels)

    # --------------------------------------------------------- autoscaling
    def replicas_active(self, n: int) -> None:
        self._m["algas_replicas_active"].set(n)

    def scale_event(self, now_us: float, old: int, new: int, depth: float) -> None:
        """The autoscaler changed the fleet size from ``old`` to ``new``."""
        self._m["algas_scale_events_total"].inc()
        self._m["algas_replicas_active"].set(new)
        self.spans.record(
            "scale-up" if new > old else "scale-down", now_us, now_us,
            attrs={"from": str(old), "to": str(new), **self.labels},
        )

    def fault_injected(self, kind: str) -> None:
        """One injected fault fired (labelled by kind, like transitions)."""
        counter = self._faults.get(kind)
        if counter is None:
            counter = self._faults[kind] = self.registry.counter(
                "algas_faults_injected_total", "injected faults fired, by kind",
                kind=kind, **self.labels,
            )
        counter.inc()

    # ------------------------------------------------------- generic spans
    def span(self, name: str, start_us: float, end_us: float,
             query_id: int | None = None, slot_id: int | None = None,
             **attrs) -> None:
        self.spans.record(name, start_us, end_us, query_id, slot_id,
                          {**self.labels, **attrs})

    # ---------------------------------------------------------- serve level
    def observe_report(self, report, mode: str | None = None) -> None:
        """Record a finished serve's headline numbers as gauges."""
        labels = dict(self.labels)
        if mode is not None:
            labels["mode"] = mode
        reg = self.registry
        reg.gauge("algas_makespan_us", "makespan of the last serve (us)",
                  **labels).set(report.makespan_us)
        reg.gauge("algas_throughput_qps", "throughput of the last serve",
                  **labels).set(report.throughput_qps)
        reg.gauge("algas_gpu_utilization",
                  "busy fraction of reserved CTA contexts, last serve",
                  **labels).set(report.gpu_utilization)
        reg.gauge("algas_host_busy_us", "host thread busy time, last serve (us)",
                  **labels).set(report.host_busy_us)

    # ------------------------------------------------------------ exposition
    def to_dict(self, max_spans: int | None = None) -> dict:
        from .exposition import telemetry_document

        return telemetry_document(self, max_spans=max_spans)

    def to_json(self, path: str | os.PathLike | None = None,
                max_spans: int | None = 10_000) -> str:
        from .exposition import write_metrics

        text = json.dumps(self.to_dict(max_spans=max_spans), indent=2) + "\n"
        if path is not None:
            write_metrics(self, path, max_spans=max_spans)
        return text

    def to_prometheus(self) -> str:
        from .exposition import to_prometheus_text

        return to_prometheus_text(self.registry)

    def slot_timeline(self, width: int = 72, max_slots: int = 32) -> str:
        """ASCII per-slot occupancy timeline (see repro.analysis.timeline)."""
        from ..analysis.timeline import ascii_slot_timeline

        return ascii_slot_timeline(
            self.spans.filter(name="slot"), width=width, max_slots=max_slots
        )


class NullTelemetry(Telemetry):
    """No-op telemetry: every hook returns immediately.

    The default for every instrumented component: with observability off a
    hook is one empty call.  (Observability *on* is what a perf_smoke gate
    bounds, benchmarks/perf/test_telemetry_cost_smoke.py: a telemetry-on
    ``ALGASSystem.serve`` takes at most 1.10x a telemetry-off one.)  Every
    void hook of :class:`Telemetry` is overridden from one table
    (:data:`_VOID_HOOKS`, below), so a hook added there cannot reach the
    absent registry here.
    """

    enabled = False

    def __init__(self):
        # No registry, no spans: nothing is ever recorded.
        self.registry = None
        self.spans = None
        self.labels = {}

    def scoped(self, **labels) -> "NullTelemetry":
        return self

    def to_dict(self, max_spans=None) -> dict:
        return {}

    def to_json(self, path=None, max_spans=10_000) -> str:
        return "{}"

    def to_prometheus(self) -> str:
        return ""

    def slot_timeline(self, width: int = 72, max_slots: int = 32) -> str:
        return "(telemetry disabled)"


def _no_op(hook):
    """An empty function with ``hook``'s parameter list and defaults.

    It binds arguments exactly as the live hook does (a mis-shaped call
    fails with telemetry off too) at the cost of an empty call — a
    ``*args, **kwargs`` catch-all costs twice that, which the scheduler's
    per-event hooks turn into measurable wall time.
    """
    sig = inspect.signature(hook)
    # The source only marks which parameters have a default; the default
    # objects themselves are attached below.
    bare = sig.replace(return_annotation=sig.empty, parameters=[
        p.replace(annotation=p.empty, default=p.empty if p.default is p.empty else None)
        for p in sig.parameters.values()
    ])
    scope: dict = {}
    exec(f"def {hook.__name__}{bare}: pass", scope)
    fn = scope[hook.__name__]
    fn.__defaults__, fn.__kwdefaults__ = hook.__defaults__, hook.__kwdefaults__
    return fn


#: every public :class:`Telemetry` method :class:`NullTelemetry` does not
#: define itself — the hooks that return nothing
_VOID_HOOKS = tuple(
    name for name, attr in vars(Telemetry).items()
    if callable(attr) and not name.startswith("_") and name not in vars(NullTelemetry)
)
for _name in _VOID_HOOKS:
    setattr(NullTelemetry, _name, _no_op(getattr(Telemetry, _name)))


#: shared no-op instance; components do ``tel = telemetry or NULL_TELEMETRY``.
NULL_TELEMETRY = NullTelemetry()

"""In-memory spans recorded from the benchmark's own files.

Nothing under ``src/`` knows about tracing: the benchmark wraps the public
methods of the *instances* it built (``system.search_all``,
``dyn.insert_batch``, the engine ``system.make_engine`` returns, ...) with
proxies that open a span around the call, so a traced run executes the same
code as an untraced one.  Spans stay in a list until the run ends and are
then written out in one piece.

A span's *self time* is its duration minus the time its direct children
cover; the benchmark is single-threaded where it traces, so children never
overlap and the sum of self times over a tree equals the root's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "patched", "search_counters", "SEARCH_COUNTERS"]


@dataclass
class Span:
    name: str
    request: str  # workload/phase/repetition — shared by one call's spans
    parent: int | None  # index of the span that caused this one
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a disabled tracer makes every hook a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._deferred: list[tuple] = []

    def span(self, name: str, **counts):
        """Context manager recording one span (``counts`` known up front)."""
        return self._span(name, counts) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, counts: dict):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, self.request, parent, time.perf_counter(), counts=counts)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Proxy for ``fn`` that spans each call.

        ``count(args, kwargs, result) -> dict`` records counts at the same
        boundary.  It is deferred to :meth:`settle`, which the runner calls
        once the top-level call returned, so counting (walking every step
        record of a trace, say) never sits inside a timed span.
        """

        def proxy(*args, **kwargs):
            with self._span(name, {}) as sp:
                out = fn(*args, **kwargs)
            if count is not None:
                self._deferred.append((sp, count, args, kwargs, out))
            return out

        return proxy

    def settle(self) -> None:
        """Run the deferred count callbacks and drop their references."""
        for sp, count, args, kwargs, out in self._deferred:
            sp.counts.update(count(args, kwargs, out))
        self._deferred.clear()

    # ------------------------------------------------------------ reductions
    def select(self, request_prefix: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.request.startswith(request_prefix)]

    def self_times(self, request_prefix: str = "") -> dict[str, float]:
        """Summed self time per span name over the matching requests."""
        idx = self.select(request_prefix)
        covered = dict.fromkeys(idx, 0.0)
        for i in idx:
            p = self.spans[i].parent
            if p in covered:
                covered[p] += self.spans[i].duration
        out: dict[str, float] = {}
        for i in idx:
            s = self.spans[i]
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered[i]
        return out

    def count_sum(self, name: str, key: str, request_prefix: str = "") -> float:
        return sum(
            self.spans[i].counts.get(key, 0)
            for i in self.select(request_prefix)
            if self.spans[i].name == name
        )

    def calls(self, name: str, request_prefix: str = "") -> int:
        return sum(1 for i in self.select(request_prefix)
                   if self.spans[i].name == name)

    def durations(self, name: str, request_prefix: str = "") -> list[float]:
        return [self.spans[i].duration for i in self.select(request_prefix)
                if self.spans[i].name == name]

    def write(self, path: Path, header: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "header": header,
            "spans": [
                {"id": i, "name": s.name, "request": s.request,
                 "parent": s.parent, "start_s": s.start - t0,
                 "end_s": s.end - t0, "counts": s.counts}
                for i, s in enumerate(self.spans)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")


@contextmanager
def patched(obj, **attrs):
    """Shadow ``obj``'s methods with instance attributes, then restore."""
    for name, value in attrs.items():
        setattr(obj, name, value)
    try:
        yield obj
    finally:
        for name in attrs:
            delattr(obj, name)


# ------------------------------------------------------- trace-derived counts
#: counter -> StepRecord field it sums
_STEP_FIELDS = {
    "distances": "n_new_points",
    "expanded": "n_expanded",
    "fetched": "n_neighbors_fetched",
    "sorts": "did_sort",
}
SEARCH_COUNTERS = ("steps", *_STEP_FIELDS)


def search_counters(traces) -> dict:
    """Op counts summed over a list of search traces.

    The one place that knows the trace layout (``QueryTrace.ctas`` →
    ``CTATrace.steps`` → ``StepRecord`` fields).  A counter whose field is
    gone reads ``None`` — ROADMAP item 2 replaces these object lists with
    columns, and the benchmark should then say "missing", not crash.
    """
    totals: dict = dict.fromkeys(SEARCH_COUNTERS, 0)
    try:
        for trace in traces:
            for cta in getattr(trace, "ctas", None) or (trace,):
                for step in cta.steps:
                    totals["steps"] += 1
                    for key, attr in _STEP_FIELDS.items():
                        value = getattr(step, attr, None)
                        if value is None or totals[key] is None:
                            totals[key] = None
                        else:
                            totals[key] += int(value)
    except (AttributeError, TypeError):
        return dict.fromkeys(SEARCH_COUNTERS, None)
    return totals

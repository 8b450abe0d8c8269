"""Structured span tracing of the query lifecycle.

A span is one named interval on the simulation clock, optionally pinned to
a query and/or a slot.  The serving engines emit a small fixed set per
query (see docs/observability.md for the lifecycle diagram):

``queue``  arrival → dispatch (admission + batch-accumulation wait)
``slot``   dispatch → results collected (slot occupancy, dynamic batching)
``search`` GPU start → this query's own CTAs finished
``merge``  host observed completion → merged/filtered results returned
``query``  arrival → completion (the whole lifecycle)

plus batch-level spans (``batch``, ``kernel``) from the static engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Span", "SpanLog"]


@dataclass(slots=True)
class Span:
    """One named interval (simulation microseconds)."""

    name: str
    start_us: float
    end_us: float
    query_id: int | None = None
    slot_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        d = {"name": self.name, "start_us": self.start_us, "end_us": self.end_us}
        if self.query_id is not None:
            d["query_id"] = self.query_id
        if self.slot_id is not None:
            d["slot_id"] = self.slot_id
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


class SpanLog:
    """Append-only span collection with simple filtering."""

    def __init__(self):
        self.spans: list[Span] = []

    def record(
        self,
        name: str,
        start_us: float,
        end_us: float,
        query_id: int | None = None,
        slot_id: int | None = None,
        **attrs,
    ) -> Span:
        span = Span(name, float(start_us), float(end_us), query_id, slot_id, attrs)
        self.spans.append(span)
        return span

    def merge_from(self, other: "SpanLog") -> None:
        """Append another log's spans (the parallel fan-in: workers record
        into private logs, the parent concatenates them in shard order so
        the merged log matches a sequential run span for span)."""
        self.spans.extend(other.spans)

    def filter(
        self,
        name: str | None = None,
        query_id: int | None = None,
        slot_id: int | None = None,
    ) -> list[Span]:
        return [
            s
            for s in self.spans
            if (name is None or s.name == name)
            and (query_id is None or s.query_id == query_id)
            and (slot_id is None or s.slot_id == slot_id)
        ]

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

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

The log holds one entry a lifecycle step, with the times its hook saw
(copied as it fired: an engine may rewrite a record later); a finished
query's entry reads back as ``slot`` (if it held one), ``search``,
``merge`` and ``query``.  :class:`Span` objects are built only on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Span", "SpanLog"]

#: How a finished query's entry reads back: ``(name, start, end, pinned)``
#: a span, ``start`` / ``end`` indexing the entry's times ``(arrival,
#: dispatch, gpu_start, gpu_end, detected, complete)``; only a ``pinned``
#: span carries the slot id.
_SERVED = (("search", 2, 3, False), ("merge", 4, 5, False), ("query", 0, 5, False))
_SERVED_IN_SLOT = (("slot", 1, 5, True),) + _SERVED


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
    """Append-only log of ``(steps, query_id, slot_id, attrs, *times)``
    entries, read back as spans: ``steps`` is one span's name (``times``
    its start and end) or a finished query's :data:`_SERVED` layout."""

    def __init__(self):
        self.entries: list[tuple] = []

    def record(
        self,
        name: str,
        start_us: float,
        end_us: float,
        query_id: int | None = None,
        slot_id: int | None = None,
        attrs: dict | None = None,
    ) -> None:
        """One span's entry; ``attrs`` is held, and copied into it on read."""
        self.entries.append((name, query_id, slot_id, attrs, start_us, end_us))

    def record_query(self, rec, slot_id: int | None, attrs: dict | None) -> None:
        """One finished :class:`~repro.core.serving.QueryRecord`, served in
        ``slot_id`` (None: a batch or fleet replica, no ``slot`` span)."""
        self.entries.append((
            _SERVED if slot_id is None else _SERVED_IN_SLOT, rec.query_id, slot_id,
            attrs, rec.arrival_us, rec.dispatch_us, rec.gpu_start_us,
            rec.gpu_end_us, rec.detected_us, rec.complete_us,
        ))

    def merge_from(self, other: "SpanLog") -> None:
        """Append another log's entries (the parallel fan-in: workers record
        into private logs, the parent concatenates them in shard order so
        the merged log matches a sequential run span for span)."""
        self.entries.extend(other.entries)

    def filter(
        self,
        name: str | None = None,
        query_id: int | None = None,
        slot_id: int | None = None,
    ) -> list[Span]:
        return [
            s
            for s in self
            if (name is None or s.name == name)
            and (query_id is None or s.query_id == query_id)
            and (slot_id is None or s.slot_id == slot_id)
        ]

    def __len__(self) -> int:
        return sum(1 if isinstance(e[0], str) else len(e[0]) for e in self.entries)

    def __iter__(self):
        for steps, query_id, slot_id, attrs, *times in self.entries:
            if isinstance(steps, str):
                steps = ((steps, 0, 1, True),)
            for name, start, end, pinned in steps:
                yield Span(name, float(times[start]), float(times[end]), query_id,
                           slot_id if pinned else None, dict(attrs or ()))

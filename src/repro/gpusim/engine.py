"""Discrete-event simulation engine.

A minimal, deterministic event loop (time in microseconds, ties broken by
insertion order) plus a list scheduler used to model kernel-grid execution:
a launch of ``B`` blocks with known durations onto ``C`` concurrent block
slots — exactly how a GPU dispatches waves of CTAs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["Simulator", "BlockSchedule", "list_schedule"]


class Simulator:
    """Deterministic discrete-event loop.

    Callbacks receive the simulator so they can schedule follow-on events.
    ``schedule`` accepts an absolute timestamp; ``after`` a relative delay.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[["Simulator"], None]]] = []
        self._seq = itertools.count()
        self._events_run = 0

    def schedule(self, when: float, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn`` at absolute time ``when`` (≥ now)."""
        if when < self.now - 1e-9:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        heapq.heappush(self._heap, (when, next(self._seq), fn))

    def after(self, delay: float, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn`` after a relative ``delay``."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, fn)

    def run(self, until: float = float("inf"), max_events: int = 50_000_000) -> float:
        """Drain events until the queue empties or ``until`` is reached.

        Returns the final simulation time.  ``max_events`` guards against
        accidental live-lock (e.g. a polling loop that never terminates).
        """
        while self._heap:
            when, _, fn = self._heap[0]
            if when > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = when
            fn(self)
            self._events_run += 1
            if self._events_run > max_events:
                raise RuntimeError("event budget exhausted — runaway simulation?")
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)

    def next_time(self) -> float:
        """Timestamp of the earliest pending event (inf with none pending)."""
        return self._heap[0][0] if self._heap else float("inf")


@dataclass(frozen=True)
class BlockSchedule:
    """Result of scheduling one kernel grid."""

    start_us: tuple[float, ...]  # per-block start times
    end_us: tuple[float, ...]  # per-block end times
    kernel_end_us: float  # completion of the whole grid

    @property
    def makespan_us(self) -> float:
        return self.kernel_end_us


def list_schedule(
    durations_us: list[float],
    n_concurrent: int,
    t0: float = 0.0,
) -> BlockSchedule:
    """Greedy list scheduling of blocks onto concurrent block slots.

    Models the GPU's block dispatcher: blocks launch in index order, each
    starting on the earliest-free slot.  With ``B ≤ n_concurrent`` all
    blocks run in a single wave; otherwise later blocks queue — which is
    how large static batches stretch per-query latency (§I, §VI-C).
    """
    if n_concurrent <= 0:
        raise ValueError("n_concurrent must be positive")
    if any(d < 0 for d in durations_us):
        raise ValueError("durations must be non-negative")
    slots = [t0] * min(n_concurrent, max(len(durations_us), 1))
    heapq.heapify(slots)
    starts: list[float] = []
    ends: list[float] = []
    for d in durations_us:
        free_at = heapq.heappop(slots)
        start = max(free_at, t0)
        end = start + d
        starts.append(start)
        ends.append(end)
        heapq.heappush(slots, end)
    kernel_end = max(ends, default=t0)
    return BlockSchedule(tuple(starts), tuple(ends), kernel_end)

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

#: a sequence number above every real one: ``(t, _LAST)`` sorts after all
#: events at time ``t``.
_LAST = float("inf")


class Simulator:
    """Deterministic discrete-event loop.

    Callbacks receive the simulator so they can schedule follow-on events.
    ``schedule`` accepts an absolute timestamp; ``after`` a relative delay.

    Besides these *loud* events the loop carries *quiet posts*:
    ``post(when, item)`` queues a plain ``item`` for the one drain that
    :meth:`run` is given.  Both kinds draw from one sequence counter
    and run in the order a single ``(time, seq)`` heap would give, ties
    included, and both count as events; only :meth:`next_time` tells them
    apart — it reports loud events alone, so a caller may skip work up to
    the next loud event past posts that cannot affect that work.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[["Simulator"], None]]] = []
        self._posts: list[tuple[float, int, object]] = []
        self._seq = itertools.count()
        self._events_run = 0

    def schedule(self, when: float, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn`` at absolute time ``when`` (≥ now)."""
        if when < self.now - 1e-9:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        heapq.heappush(self._heap, (when, next(self._seq), fn))

    def post(self, when: float, item: object) -> None:
        """Queue the quiet post ``item`` at absolute time ``when`` (≥ now)."""
        if when < self.now - 1e-9:
            raise ValueError(f"cannot post in the past ({when} < {self.now})")
        heapq.heappush(self._posts, (when, next(self._seq), item))

    def after(self, delay: float, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn`` after a relative ``delay``."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, fn)

    def run(
        self,
        until: float = float("inf"),
        max_events: int = 50_000_000,
        on_post: Callable[[list, tuple], float] | None = None,
    ) -> float:
        """Drain events until both queues empty or ``until`` is reached.

        Returns the final simulation time.  ``on_post(posts, stop)`` is the
        drain of quiet posts: it must pop from the heap ``posts``, in heap
        order, every entry ``(when, seq, item)`` that compares below
        ``stop``, run each, and return the time of the last one; it may
        neither schedule nor post.  It is called whenever the earliest
        event is a post, with ``stop`` the next loud event (or ``until``).
        ``max_events`` guards against accidental live-lock (e.g. a polling
        loop that never terminates).
        """
        heap, posts, pop = self._heap, self._posts, heapq.heappop
        if posts and on_post is None:
            raise ValueError("quiet posts are pending but run() was given no on_post drain")
        n_run = self._events_run
        try:
            while heap or posts:
                # Equal times fall to the sequence number, never further.
                if posts and (not heap or posts[0] < heap[0]):
                    if posts[0][0] > until:
                        break
                    n = len(posts)
                    stop = heap[0] if heap and heap[0][0] <= until else (until, _LAST)
                    self.now = on_post(posts, stop)
                    n_run += n - len(posts)
                else:
                    when, _, fn = heap[0]
                    if when > until:
                        break
                    pop(heap)
                    self.now = when
                    fn(self)
                    n_run += 1
                if n_run > max_events:
                    raise RuntimeError("event budget exhausted — runaway simulation?")
            else:
                return self.now
        finally:
            self._events_run = n_run
        self.now = until
        return self.now

    @property
    def pending(self) -> int:
        """Events of both kinds not yet run."""
        return len(self._heap) + len(self._posts)

    def next_time(self) -> float:
        """Timestamp of the earliest pending loud event (inf with none);
        quiet posts are not reported."""
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

"""Concurrent query manager (§V-B).

"They employ a concurrent query manager module to handle query
distribution."  The manager owns the admission queue shared by all host
threads: queries become eligible at their arrival time and are handed to
free slots in priority order (FIFO within a priority class).

Host threads call in with their *own* local clocks (one thread's pass may
run ahead of another's), so eligibility (arrival ≤ now) is enforced at
*pop time* for the caller's clock — a query can never be dispatched before
it arrived, no matter which thread admitted it to the ready pool.

Extensions beyond the paper (exercised by the extension benchmarks):

* **priorities** — latency-critical queries can overtake best-effort ones;
* **deadlines** — queries whose deadline passed before dispatch are
  dropped and reported, modelling admission control under overload;
* **queue-depth shedding** — with ``max_queue_depth`` set, an arrival
  that finds the ready queue full is shed at the door (load shedding;
  docs/load_testing.md).  Shed queries are accounted as drops, with
  their own telemetry counter to keep them distinguishable from
  deadline expiries.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from ..telemetry import NULL_TELEMETRY
from .serving import QueryJob

__all__ = ["ManagedQuery", "QueryManager"]


@dataclass(frozen=True)
class ManagedQuery:
    """A job plus its scheduling metadata."""

    job: QueryJob
    #: larger = more urgent; ties broken FIFO by arrival then id.
    priority: int = 0
    #: absolute drop deadline (µs); None = never dropped.
    deadline_us: float | None = None


class QueryManager:
    """Priority admission queue with arrival gating and deadline drops."""

    def __init__(
        self,
        queries: list[ManagedQuery] | list[QueryJob] | None = None,
        telemetry=None,
        max_queue_depth: int | None = None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self._arrivals: list[tuple[float, int, ManagedQuery]] = []
        self._ready: list[tuple[int, float, int, ManagedQuery]] = []
        self._seq = itertools.count()
        self._tel = telemetry or NULL_TELEMETRY
        self.max_queue_depth = max_queue_depth
        self.dropped: list[ManagedQuery] = []
        #: subset of ``dropped`` shed at admission by the queue-depth limit.
        self.shed: list[ManagedQuery] = []
        self.dispatched = 0
        # Fast-path state: deadline scans and eligibility scans are O(queue)
        # per pop, which dominates deep-overload fleet sweeps — skip both
        # when provably unnecessary (no deadlines anywhere / caller's clock
        # at or past every admission clock).
        self._any_deadline = False
        self._admit_clock = float("-inf")
        for q in queries or []:
            self.submit(q)

    def submit(self, q: ManagedQuery | QueryJob, resubmit: bool = False) -> None:
        """Add a query to the admission queue.

        ``resubmit=True`` marks a watchdog re-dispatch (the resilience
        retry path): the query re-enters the queue but is not counted as a
        new submission — retries have their own telemetry counter.
        """
        if isinstance(q, QueryJob):
            q = ManagedQuery(q)
        if q.deadline_us is not None:
            self._any_deadline = True
        heapq.heappush(self._arrivals, (q.job.arrival_us, next(self._seq), q))
        if not resubmit:
            self._tel.query_submitted()

    # ------------------------------------------------------------- internal
    def _admit(self, now: float) -> None:
        if now > self._admit_clock:
            self._admit_clock = now
        admitted = False
        while self._arrivals and self._arrivals[0][0] <= now:
            _, seq, q = heapq.heappop(self._arrivals)
            if (
                self.max_queue_depth is not None
                and len(self._ready) >= self.max_queue_depth
            ):
                # Load shedding: reject at the door rather than queueing
                # work that will blow its latency budget anyway.
                self.dropped.append(q)
                self.shed.append(q)
                self._tel.query_shed(
                    q.job.query_id, q.job.arrival_us, len(self._ready)
                )
                continue
            heapq.heappush(self._ready, (-q.priority, q.job.arrival_us, seq, q))
            admitted = True
        if admitted:
            self._tel.queue_depth(len(self._ready))

    def _drop_expired(self, now: float) -> None:
        # Callers skip this unless some query has a deadline.
        live = []
        changed = False
        for entry in self._ready:
            q = entry[3]
            if q.deadline_us is not None and q.deadline_us < now:
                self.dropped.append(q)
                self._tel.query_dropped(
                    q.job.query_id, q.job.arrival_us, q.deadline_us
                )
                changed = True
            else:
                live.append(entry)
        if changed:
            self._ready = live
            heapq.heapify(self._ready)

    def _eligible(self, now: float) -> int | None:
        """Index (into the ready heap array) of the most urgent query whose
        arrival is ≤ the *caller's* clock, after admitting arrivals and
        dropping expired queries at ``now``."""
        self._admit(now)
        if self._any_deadline:
            self._drop_expired(now)
        if not self._ready:
            return None
        if now >= self._admit_clock:
            # Every admitted entry arrived at or before some admission
            # clock <= now, so all are eligible and the heap root (the
            # global key minimum; seq makes keys unique) is the answer.
            return 0
        best_i = None
        best_key = None
        for i, entry in enumerate(self._ready):
            if entry[3].job.arrival_us > now:
                continue  # admitted by a thread whose clock ran ahead
            key = entry[:3]
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        return best_i

    # -------------------------------------------------------------- queries
    def next_ready(self, now: float) -> ManagedQuery | None:
        """Pop the most urgent query eligible at ``now`` (None if none)."""
        i = self._eligible(now)
        if i is None:
            return None
        q = self._ready[i][3]
        if i == 0:
            heapq.heappop(self._ready)
        else:
            self._ready[i] = self._ready[-1]
            self._ready.pop()
            heapq.heapify(self._ready)
        self.dispatched += 1
        self._tel.queue_depth(len(self._ready))
        return q

    def peek_ready(self, now: float) -> ManagedQuery | None:
        """The query ``next_ready`` would return, without removing it."""
        i = self._eligible(now)
        return self._ready[i][3] if i is not None else None

    def ready_depth(self, now: float) -> int:
        """Depth of the ready queue at ``now`` (the overload-degradation
        signal: arrivals are admitted and expired entries dropped first)."""
        self._admit(now)
        if self._any_deadline:
            self._drop_expired(now)
        return len(self._ready)

    def next_arrival_us(self) -> float | None:
        """Earliest arrival of any query not yet dispatched or dropped."""
        candidates = []
        if self._arrivals:
            candidates.append(self._arrivals[0][0])
        candidates.extend(e[1] for e in self._ready)
        return min(candidates) if candidates else None

    def quiet_until(self) -> float:
        """Clock before which :meth:`peek_ready` finds nothing, O(1).

        With the ready queue empty that is the earliest pending arrival
        (inf when none is pending): a peek at any earlier clock admits
        nothing, so it sheds, drops and reports nothing either — all it
        moves is the admission clock, which only ever selects between two
        equivalent scans in :meth:`_eligible`.  -inf as soon as a
        query has been admitted: the next peek may hand it out.
        """
        if self._ready:
            return float("-inf")
        return self._arrivals[0][0] if self._arrivals else float("inf")

    @property
    def pending(self) -> int:
        """Queries not yet dispatched or dropped."""
        return len(self._arrivals) + len(self._ready)

    def __bool__(self) -> bool:
        return self.pending > 0

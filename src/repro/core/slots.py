"""Slot state machine (§IV-A, Fig. 5) on a structure-of-arrays bank.

Dynamic batching replaces the batch with independent *slots*; each slot owns
the full lifecycle of one in-flight query.  A slot aggregates the states of
its ``N_parallel`` CTAs; the host and GPU communicate exclusively through
these states (via :mod:`repro.core.state_sync`).

States and legal transitions follow Fig. 5:

``NONE → WORK``      host fills a query and flips the CTAs to Work
``WORK → FINISH``    a CTA completes its share of the search
``FINISH → DONE``    host observed *all* CTAs finished and fetched results
``DONE → WORK``      host loads the next query (slot reuse)
``DONE → QUIT``      slot retires (drain/shutdown)
``NONE → QUIT``      unused slot retires immediately

Storage is a :class:`SlotBank`, laid out so that one scheduler event costs
O(1) scalar Python: the CTA state words are one ``bytearray`` (a byte per
word; the public ``codes`` ndarray is a view of the same memory, not a
copy), and every per-slot word — owned query id, served count, running
job, dispatch and FINISH-visible stamps, dispatch epoch — is a plain list
indexed by slot.  A slot is a row of the bank, not an object: its row
operations enforce Fig. 5 with one ``bytes.count`` over the row's bytes.
Per-thread counters of free, in-flight and ready-stamped slots answer
"does host thread *t* have anything to do" without looking at a slot, so
the scheduler never polls the bank to find out what changed
(docs/performance.md, "Wall-clock vs simulated speed").

Two escape hatches sit deliberately *outside* Fig. 5, for the resilience
layer (docs/robustness.md): :meth:`SlotBank.force_retire` is the
watchdog's recovery path (the host revokes a wedged slot from *any*
state), and :meth:`SlotBank.corrupt_cta` models a GPU-side fault writing
an out-of-protocol state word.  Both are counted in the bank's transition
table, so chaos runs stay accountable.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["SlotState", "StateTransitionError", "SlotBank"]


class SlotState(Enum):
    NONE = "none"
    WORK = "work"
    FINISH = "finish"
    DONE = "done"
    QUIT = "quit"


_ALLOWED: dict[SlotState, frozenset[SlotState]] = {
    SlotState.NONE: frozenset({SlotState.WORK, SlotState.QUIT}),
    SlotState.WORK: frozenset({SlotState.FINISH}),
    SlotState.FINISH: frozenset({SlotState.DONE}),
    SlotState.DONE: frozenset({SlotState.WORK, SlotState.QUIT}),
    SlotState.QUIT: frozenset(),
}

# Bank representation: one byte code per CTA state word.
_STATES: tuple[SlotState, ...] = tuple(SlotState)
_CODE: dict[SlotState, int] = {s: i for i, s in enumerate(_STATES)}
_NONE, _WORK, _FINISH, _DONE, _QUIT = range(5)

#: ``_ALLOWED`` inverted, in code space: the codes a CTA word may hold when
#: the host moves it to code ``new`` — ``host_set`` counts these bytes.
_SOURCES: tuple[tuple[int, ...], ...] = tuple(
    tuple(_CODE[cur] for cur, news in _ALLOWED.items() if new in news)
    for new in _STATES
)


class StateTransitionError(RuntimeError):
    """Raised on a transition Fig. 5 does not allow."""


class SlotBank:
    """State of ``n_slots`` slots of ``n_ctas`` CTAs, scalar-addressable.

    ``owned`` deals the slots to host threads (one list of slot ids per
    thread; default: one thread owning every slot).  Per thread the bank
    keeps :attr:`live` — its slots not yet retired, in slot order — and
    three counters: :attr:`n_free` (live, no job), :attr:`n_in_flight`
    (dispatched, not yet collected or revoked) and :attr:`n_ready` (in
    flight with a FINISH-visible stamp).  They are moved only by
    :meth:`dispatch`, :meth:`mark_ready`, :meth:`collect` and
    :meth:`force_retire`: a scheduler drives its bank through these four,
    and there is exactly one copy of every word.

    The paper gives *modification rights* to exactly one side at a time
    (§V-A): the GPU owns a CTA's state only while that CTA is in WORK; the
    host owns it otherwise.  :meth:`advance_cta` / :meth:`host_set`
    enforce this.
    """

    __slots__ = (
        "n_slots", "n_ctas", "_words", "codes", "query_ids", "queries_served",
        "jobs", "dispatched_at", "ready_at", "epochs",
        "owner", "live", "n_free", "n_in_flight", "n_ready", "transitions",
    )

    def __init__(
        self, n_slots: int, n_ctas: int, owned: list[list[int]] | None = None
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if n_ctas <= 0:
            raise ValueError("n_ctas must be positive")
        if owned is None:
            owned = [list(range(n_slots))]
        if sorted(s for mine in owned for s in mine) != list(range(n_slots)):
            raise ValueError("owned must deal every slot to exactly one thread")
        self.n_slots = n_slots
        self.n_ctas = n_ctas
        #: the CTA state words, slot-major, one byte each.
        self._words = bytearray(n_slots * n_ctas)  # zero-filled: _NONE
        #: (n_slots, n_ctas) int8 view of the same bytes.
        self.codes = np.frombuffer(self._words, dtype=np.int8).reshape(
            n_slots, n_ctas
        )
        #: query id owned by each slot (None = empty).
        self.query_ids: list[int | None] = [None] * n_slots
        self.queries_served = [0] * n_slots
        # Scheduler runtime words; None while the slot is empty.
        #: the job each slot is running (opaque reference).
        self.jobs: list = [None] * n_slots
        #: host time the running job was dispatched.
        self.dispatched_at: list[float | None] = [None] * n_slots
        #: time the slot's FINISH becomes visible to the host
        #: (:meth:`mark_ready`, when the last CTA publishes).
        self.ready_at: list[float | None] = [None] * n_slots
        #: dispatch epoch: bumped when the watchdog revokes a slot, so
        #: in-flight CTA-end events of the revoked dispatch become no-ops.
        self.epochs = [0] * n_slots
        #: host thread owning each slot.
        self.owner = [0] * n_slots
        for tid, mine in enumerate(owned):
            for s in mine:
                self.owner[s] = tid
        self.live = [sorted(mine) for mine in owned]
        self.n_free = [len(mine) for mine in owned]
        self.n_in_flight = [0] * len(owned)
        self.n_ready = [0] * len(owned)
        #: ``transitions[old][new]``: transitions counted by state code, or
        #: None (nothing counted).  Host-side transitions count once per
        #: slot with the aggregate ``old``, GPU-side ones once per CTA —
        #: who writes how many state words over the wire.
        self.transitions: list[list[int]] | None = None

    def all_finished(self, s: int) -> bool:
        """Every CTA of slot ``s`` is FINISH (the host detection condition)."""
        n = self.n_ctas
        return self._words.count(_FINISH, s * n, s * n + n) == n

    def state(self, s: int) -> SlotState:
        """Aggregate state of slot ``s``: its *least advanced* CTA state.

        A slot is FINISH only when *all* its CTAs are FINISH (the host's
        detection condition in step ❸ of §IV-B).
        """
        return _STATES[self._aggregate(s)]

    def _aggregate(self, s: int) -> int:
        n = self.n_ctas
        c = self._words[s * n:s * n + n]
        if c.count(c[0]) == n:
            return c[0]
        for code in (_WORK, _FINISH, _DONE):
            if code in c:
                return code
        return _NONE

    # ------------------------------------------------------- row operations
    def host_set(self, s: int, new: SlotState) -> None:
        """Host-side transition of every CTA word of slot ``s`` to ``new``."""
        words, n = self._words, self.n_ctas
        lo = s * n
        nc = _CODE[new]
        sources = _SOURCES[nc]
        n_legal = 0
        for c in sources:
            n_legal += words.count(c, lo, lo + n)
        if n_legal != n:
            i = next(i for i in range(lo, lo + n) if words[i] not in sources)
            raise StateTransitionError(
                f"slot {s} CTA {i - lo}: {_STATES[words[i]]} → {new}"
            )
        if self.transitions is not None:
            self.transitions[self._aggregate(s)][nc] += 1
        words[lo:lo + n] = bytes((nc,)) * n

    def advance_cta(self, s: int, cta: int) -> None:
        """GPU-side transition WORK → FINISH for one CTA of slot ``s``."""
        if not 0 <= cta < self.n_ctas:
            raise IndexError("cta index out of range")
        words, i = self._words, s * self.n_ctas + cta
        cur = words[i]
        if cur != _WORK:
            raise StateTransitionError(
                f"slot {s} CTA {cta}: GPU may only advance WORK, "
                f"saw {_STATES[cur]}"
            )
        words[i] = _FINISH
        if self.transitions is not None:
            self.transitions[_WORK][_FINISH] += 1

    def corrupt_cta(self, s: int, cta: int) -> None:
        """Fault-injection hook: the CTA writes an out-of-protocol word.

        Models a GPU-side corruption of the state handshake — instead of
        FINISH the state word regresses to NONE, a transition no side may
        legally make.  The slot can then never aggregate to FINISH, which
        is exactly the no-progress signature the engine watchdog detects.
        """
        if not 0 <= cta < self.n_ctas:
            raise IndexError("cta index out of range")
        words, i = self._words, s * self.n_ctas + cta
        if self.transitions is not None:
            self.transitions[words[i]][_NONE] += 1
        words[i] = _NONE

    # ------------------------------------------------ scheduler events
    def dispatch(self, s: int, job, t_us: float) -> None:
        """Host fills slot ``s`` (NONE/DONE → WORK) with ``job`` (anything
        with a ``query_id``)."""
        self.host_set(s, SlotState.WORK)
        self.query_ids[s] = job.query_id
        self.jobs[s] = job
        self.dispatched_at[s] = t_us
        tid = self.owner[s]
        self.n_free[tid] -= 1
        self.n_in_flight[tid] += 1

    def mark_ready(self, s: int, t_us: float) -> None:
        """Slot ``s``'s FINISH becomes visible to the host at ``t_us``."""
        if self.ready_at[s] is None:
            self.n_ready[self.owner[s]] += 1
        self.ready_at[s] = t_us

    def collect(self, s: int):
        """Host collects finished slot ``s`` (FINISH → DONE); returns the
        job it ran."""
        if not self.all_finished(s):
            raise StateTransitionError(
                f"slot {s}: collect before all CTAs finished"
            )
        self.host_set(s, SlotState.DONE)
        self.query_ids[s] = None
        self.queries_served[s] += 1
        self.n_free[self.owner[s]] += 1
        return self._release(s)

    def force_retire(self, s: int):
        """Watchdog recovery: revoke slot ``s`` from *any* state, bump its
        epoch, and return the job that was lost with it.

        Unlike ``host_set(s, QUIT)`` this bypasses the Fig. 5 transition
        table — a hung or corrupted slot is by definition stuck in a state
        the protocol cannot leave.  The persistent kernel treats QUIT as
        terminal, so the slot's CTA contexts are permanently lost (the
        engine serves on with the survivors).
        """
        self.epochs[s] += 1
        if self.transitions is not None:
            self.transitions[self._aggregate(s)][_QUIT] += 1
        n = self.n_ctas
        self._words[s * n:s * n + n] = bytes((_QUIT,)) * n
        self.query_ids[s] = None
        tid = self.owner[s]
        if s in self.live[tid]:
            self.live[tid].remove(s)
            if self.jobs[s] is None:
                self.n_free[tid] -= 1
        return self._release(s)

    def _release(self, s: int):
        job, self.jobs[s] = self.jobs[s], None
        tid = self.owner[s]
        if job is not None:
            self.n_in_flight[tid] -= 1
        if self.ready_at[s] is not None:
            self.n_ready[tid] -= 1
        self.ready_at[s] = None
        self.dispatched_at[s] = None
        return job

    def transition_counts(self) -> dict[tuple[str, str], int]:
        """The non-zero entries of :attr:`transitions` as ``{(from, to):
        count}`` in state names (empty when nothing was counted)."""
        table = self.transitions or ()
        return {
            (_STATES[i].value, _STATES[j].value): n
            for i, row in enumerate(table) for j, n in enumerate(row) if n
        }

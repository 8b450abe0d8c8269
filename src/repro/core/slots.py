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
indexed by slot.  The bank also answers "does host thread *t* have
anything to do" without looking at a slot: per-thread counters of free,
in-flight and ready-stamped slots and the list of each thread's live
(not retired) slots are moved by the four operations that move a slot —
:meth:`SlotBank.dispatch`, :meth:`SlotBank.mark_ready`,
:meth:`SlotBank.collect`, :meth:`SlotBank.force_retire` — and by nothing
else, so the scheduler never polls the bank to find out what changed
(docs/performance.md, "Wall-clock vs simulated speed").  :class:`Slot`
remains the per-slot API: a thin view onto one bank row with the exact
transition checks and observer callbacks of the original object, so the
telemetry and resilience layers observe identical transitions in
identical order.

Two escape hatches sit deliberately *outside* Fig. 5, for the resilience
layer (docs/robustness.md): :meth:`Slot.force_retire` is the watchdog's
recovery path (the host revokes a wedged slot from *any* state), and
:meth:`Slot.corrupt_cta` models a GPU-side fault writing an
out-of-protocol state word — both are observable via the transition
observer so chaos runs stay accountable.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["SlotState", "StateTransitionError", "Slot", "SlotBank"]


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
_STATES: tuple[SlotState, ...] = (
    SlotState.NONE,
    SlotState.WORK,
    SlotState.FINISH,
    SlotState.DONE,
    SlotState.QUIT,
)
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
    and there is exactly one copy of every word.  Individual slots mutate
    their rows through :class:`Slot` views (:attr:`slots`), which enforce
    Fig. 5 exactly as the pre-bank objects did.
    """

    __slots__ = (
        "n_slots", "n_ctas", "_words", "codes", "query_ids", "queries_served",
        "_slots", "jobs", "dispatched_at", "ready_at", "epochs",
        "owner", "live", "n_free", "n_in_flight", "n_ready",
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
        self._slots: list[Slot] | None = None
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

    @property
    def slots(self) -> list["Slot"]:
        """Per-slot views, built once on first access."""
        if self._slots is None:
            self._slots = [
                Slot(slot_id=i, n_ctas=self.n_ctas, bank=self, _row=i)
                for i in range(self.n_slots)
            ]
        return self._slots

    def __len__(self) -> int:
        return self.n_slots

    def __getitem__(self, i: int) -> "Slot":
        return self.slots[i]

    def all_finished(self, s: int) -> bool:
        """Every CTA of slot ``s`` is FINISH (the host detection condition)."""
        n = self.n_ctas
        return self._words.count(_FINISH, s * n, s * n + n) == n

    # ------------------------------------------------ scheduler events
    def dispatch(self, s: int, job, t_us: float) -> None:
        """Host fills slot ``s`` with ``job`` (anything with a ``query_id``)."""
        self.slots[s].dispatch(job.query_id)
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
        """Host collects finished slot ``s``; returns the job it ran."""
        self.slots[s].collect()
        self.n_free[self.owner[s]] += 1
        return self._release(s)

    def force_retire(self, s: int):
        """Watchdog revokes slot ``s`` (:meth:`Slot.force_retire`) and bumps
        its epoch; returns the job that was lost with it."""
        self.epochs[s] += 1
        self.slots[s].force_retire()
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


class Slot:
    """One query slot with per-CTA state words (a view of one bank row).

    The paper gives *modification rights* to exactly one side at a time
    (§V-A): the GPU owns a CTA's state only while that CTA is in WORK;
    the host owns it otherwise.  ``advance_cta``/``host_set`` enforce this.

    Constructed standalone (``Slot(slot_id=0, n_ctas=4)``) the slot owns a
    private one-row bank, preserving the original object API; the engine
    instead hands out views of a shared :class:`SlotBank`.
    """

    __slots__ = ("slot_id", "n_ctas", "bank", "_row", "_lo", "_hi", "observer")

    def __init__(
        self,
        slot_id: int,
        n_ctas: int,
        cta_states: list[SlotState] | None = None,
        query_id: int | None = None,
        queries_served: int = 0,
        observer: object = None,
        bank: SlotBank | None = None,
        _row: int = 0,
    ):
        if n_ctas <= 0:
            raise ValueError("n_ctas must be positive")
        self.slot_id = slot_id
        self.n_ctas = n_ctas
        if bank is None:
            bank = SlotBank(1, n_ctas)
            _row = 0
        self.bank = bank
        self._row = _row
        #: this slot's byte range in ``bank._words``.
        self._lo = _row * n_ctas
        self._hi = self._lo + n_ctas
        #: optional transition observer ``(slot_id, old, new)`` — the
        #: telemetry layer attaches :meth:`Telemetry.slot_transition` here.
        #: Host-side transitions fire once per slot, GPU-side once per CTA
        #: (matching who writes how many state words over the wire).
        self.observer = observer
        if cta_states:
            if len(cta_states) != n_ctas:
                raise ValueError("need one state per CTA")
            bank.codes[_row] = [_CODE[s] for s in cta_states]
        if query_id is not None:
            bank.query_ids[_row] = query_id
        if queries_served:
            bank.queries_served[_row] = queries_served

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Slot(slot_id={self.slot_id}, n_ctas={self.n_ctas}, "
            f"cta_states={self.cta_states!r}, query_id={self.query_id!r}, "
            f"queries_served={self.queries_served})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slot):
            return NotImplemented
        return (
            self.slot_id == other.slot_id
            and self.n_ctas == other.n_ctas
            and self.cta_states == other.cta_states
            and self.query_id == other.query_id
            and self.queries_served == other.queries_served
        )

    # ----------------------------------------------------- stored fields
    @property
    def _codes(self) -> bytearray:
        """A copy of this slot's CTA state bytes."""
        return self.bank._words[self._lo:self._hi]

    @property
    def cta_states(self) -> list[SlotState]:
        """The CTA state words as enum members (a fresh list per access)."""
        return [_STATES[c] for c in self._codes]

    @property
    def query_id(self) -> int | None:
        """Id of the query currently owned by the slot (None when empty)."""
        return self.bank.query_ids[self._row]

    @query_id.setter
    def query_id(self, qid: int | None) -> None:
        self.bank.query_ids[self._row] = qid

    @property
    def queries_served(self) -> int:
        return self.bank.queries_served[self._row]

    @queries_served.setter
    def queries_served(self, n: int) -> None:
        self.bank.queries_served[self._row] = n

    # ----------------------------------------------------------- aggregate
    @property
    def state(self) -> SlotState:
        """Aggregate slot state: the *least advanced* CTA state.

        A slot is FINISH only when *all* its CTAs are FINISH (the host's
        detection condition in step ❸ of §IV-B).
        """
        c = self._codes
        first = c[0]
        if c.count(first) == self.n_ctas:
            return _STATES[first]
        for code in (_WORK, _FINISH, _DONE):
            if code in c:
                return _STATES[code]
        return SlotState.NONE

    @property
    def all_finished(self) -> bool:
        return self.bank.all_finished(self._row)

    @property
    def is_free(self) -> bool:
        words, lo, hi = self.bank._words, self._lo, self._hi
        return words.count(_NONE, lo, hi) + words.count(_DONE, lo, hi) == self.n_ctas

    # ---------------------------------------------------------- host side
    def host_set(self, new: SlotState) -> None:
        """Host-side transition applied to every CTA state."""
        words, lo, hi = self.bank._words, self._lo, self._hi
        nc = _CODE[new]
        sources = _SOURCES[nc]
        n_legal = 0
        for c in sources:
            n_legal += words.count(c, lo, hi)
        if n_legal != self.n_ctas:
            i = next(i for i in range(lo, hi) if words[i] not in sources)
            raise StateTransitionError(
                f"slot {self.slot_id} CTA {i - lo}: {_STATES[words[i]]} → {new}"
            )
        # The aggregate is only ever read by an observer: skip it otherwise.
        old = self.state if self.observer is not None else None
        words[lo:hi] = bytes((nc,)) * self.n_ctas
        if self.observer is not None:
            self.observer(self.slot_id, old, new)

    def dispatch(self, query_id: int) -> None:
        """NONE/DONE → WORK with a query attached."""
        self.host_set(SlotState.WORK)
        self.bank.query_ids[self._row] = query_id

    def collect(self) -> int:
        """FINISH → DONE; returns the completed query id."""
        if not self.all_finished:
            raise StateTransitionError(
                f"slot {self.slot_id}: collect before all CTAs finished"
            )
        self.host_set(SlotState.DONE)
        bank, row = self.bank, self._row
        qid, bank.query_ids[row] = bank.query_ids[row], None
        bank.queries_served[row] += 1
        return qid

    def retire(self) -> None:
        """DONE/NONE → QUIT."""
        self.host_set(SlotState.QUIT)

    def force_retire(self) -> None:
        """Watchdog recovery: revoke the slot from *any* state.

        Unlike :meth:`retire` this bypasses the Fig. 5 transition table —
        a hung or corrupted slot is by definition stuck in a state the
        protocol cannot leave.  The persistent kernel treats QUIT as
        terminal, so the slot's CTA contexts are permanently lost (the
        engine serves on with the survivors).
        """
        old = self.state if self.observer is not None else None
        self.bank._words[self._lo:self._hi] = bytes((_QUIT,)) * self.n_ctas
        self.query_id = None
        if self.observer is not None:
            self.observer(self.slot_id, old, SlotState.QUIT)

    # ----------------------------------------------------------- GPU side
    def advance_cta(self, cta: int) -> None:
        """GPU-side transition WORK → FINISH for one CTA."""
        if not 0 <= cta < self.n_ctas:
            raise IndexError("cta index out of range")
        words, i = self.bank._words, self._lo + cta
        cur = words[i]
        if cur != _WORK:
            raise StateTransitionError(
                f"slot {self.slot_id} CTA {cta}: GPU may only advance WORK, "
                f"saw {_STATES[cur]}"
            )
        words[i] = _FINISH
        if self.observer is not None:
            self.observer(self.slot_id, SlotState.WORK, SlotState.FINISH)

    def corrupt_cta(self, cta: int) -> None:
        """Fault-injection hook: the CTA writes an out-of-protocol word.

        Models a GPU-side corruption of the state handshake — instead of
        FINISH the state word regresses to NONE, a transition no side may
        legally make.  The slot can then never aggregate to FINISH, which
        is exactly the no-progress signature the engine watchdog detects.
        """
        if not 0 <= cta < self.n_ctas:
            raise IndexError("cta index out of range")
        words, i = self.bank._words, self._lo + cta
        old = _STATES[words[i]]
        words[i] = _NONE
        if self.observer is not None:
            self.observer(self.slot_id, old, SlotState.NONE)

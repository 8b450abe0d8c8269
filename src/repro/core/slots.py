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

Storage is a :class:`SlotBank`: every per-slot word (CTA states, owned
query id, served count) is one row of a parallel numpy array, so the
engine's maintenance sweep — "which slots are free / finished / retired" —
is a handful of vectorized mask reductions over the whole bank instead of
a Python loop over slots (docs/performance.md, "Wall-clock vs simulated
speed").  The bank also owns the scheduler's per-slot runtime words — the
running job, its dispatch and FINISH-visible stamps, and the dispatch
epoch — so one object answers "what is slot *s* doing";
:meth:`SlotBank.dispatch`, :meth:`SlotBank.collect` and
:meth:`SlotBank.force_retire` move a slot's state and its runtime words
together.  :class:`Slot` remains the per-slot API: a thin view onto one
bank row with the exact transition checks and observer callbacks of the
original object, so the telemetry and resilience layers observe identical
transitions in identical order.

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

# SoA representation: one int8 code per CTA state word.
_STATES: tuple[SlotState, ...] = (
    SlotState.NONE,
    SlotState.WORK,
    SlotState.FINISH,
    SlotState.DONE,
    SlotState.QUIT,
)
_CODE: dict[SlotState, int] = {s: i for i, s in enumerate(_STATES)}
_NONE, _WORK, _FINISH, _DONE, _QUIT = range(5)

#: ``_ALLOWED`` as a (current, new) boolean matrix in code space — the
#: vectorized form of the per-CTA legality check in ``host_set``.
_ALLOWED_MATRIX = np.zeros((5, 5), dtype=bool)
for _cur, _news in _ALLOWED.items():
    for _new in _news:
        _ALLOWED_MATRIX[_CODE[_cur], _CODE[_new]] = True


class StateTransitionError(RuntimeError):
    """Raised on a transition Fig. 5 does not allow."""


class SlotBank:
    """Structure-of-arrays state for ``n_slots`` slots of ``n_ctas`` CTAs.

    The engine tick reads whole-bank masks (:meth:`all_finished_mask`,
    :meth:`free_mask`, :meth:`quit_mask`) — one vectorized reduction over
    the ``(n_slots, n_ctas)`` code matrix replaces per-slot aggregate
    recomputation.  Individual slots mutate their rows through
    :class:`Slot` views (:attr:`slots`), which enforce Fig. 5 exactly as
    the pre-bank objects did.
    """

    __slots__ = (
        "n_slots", "n_ctas", "codes", "query_ids", "queries_served", "_slots",
        "jobs", "dispatched_at", "ready_at", "epochs",
    )

    def __init__(self, n_slots: int, n_ctas: int):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if n_ctas <= 0:
            raise ValueError("n_ctas must be positive")
        self.n_slots = n_slots
        self.n_ctas = n_ctas
        #: (n_slots, n_ctas) int8 CTA state words.
        self.codes = np.full((n_slots, n_ctas), _NONE, dtype=np.int8)
        #: query id owned by each slot (-1 = empty).
        self.query_ids = np.full(n_slots, -1, dtype=np.int64)
        self.queries_served = np.zeros(n_slots, dtype=np.int64)
        self._slots: list[Slot] | None = None
        # Scheduler runtime words; time stamps are NaN while the slot is
        # empty, so comparisons against them are false without a mask.
        #: the job each slot is running (opaque reference, None = empty).
        self.jobs: list = [None] * n_slots
        #: host time the running job was dispatched.
        self.dispatched_at = np.full(n_slots, np.nan)
        #: time the slot's FINISH becomes visible to the host (set by the
        #: scheduler when the last CTA publishes).
        self.ready_at = np.full(n_slots, np.nan)
        #: dispatch epoch: bumped when the watchdog revokes a slot, so
        #: in-flight CTA-end events of the revoked dispatch become no-ops.
        self.epochs = np.zeros(n_slots, dtype=np.int64)

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

    # ------------------------------------------------ scheduler events
    def dispatch(self, s: int, job, t_us: float) -> None:
        """Host fills slot ``s`` with ``job`` (anything with a ``query_id``)."""
        self.slots[s].dispatch(job.query_id)
        self.jobs[s] = job
        self.dispatched_at[s] = t_us

    def collect(self, s: int):
        """Host collects finished slot ``s``; returns the job it ran."""
        self.slots[s].collect()
        return self._release(s)

    def force_retire(self, s: int):
        """Watchdog revokes slot ``s`` (:meth:`Slot.force_retire`) and bumps
        its epoch; returns the job that was lost with it."""
        self.epochs[s] += 1
        self.slots[s].force_retire()
        return self._release(s)

    def _release(self, s: int):
        job, self.jobs[s] = self.jobs[s], None
        self.ready_at[s] = np.nan
        self.dispatched_at[s] = np.nan
        return job

    # ------------------------------------------------- vectorized sweeps
    def all_finished_mask(self) -> np.ndarray:
        """Per-slot "every CTA is FINISH" (the host detection condition)."""
        return (self.codes == _FINISH).all(axis=1)

    def free_mask(self) -> np.ndarray:
        """Per-slot "dispatchable": every CTA in NONE or DONE."""
        c = self.codes
        return ((c == _NONE) | (c == _DONE)).all(axis=1)

    def quit_mask(self) -> np.ndarray:
        """Per-slot "retired": every CTA in QUIT (force_retire/retire)."""
        return (self.codes == _QUIT).all(axis=1)


class Slot:
    """One query slot with per-CTA state words (a view of one bank row).

    The paper gives *modification rights* to exactly one side at a time
    (§V-A): the GPU owns a CTA's state only while that CTA is in WORK;
    the host owns it otherwise.  ``advance_cta``/``host_set`` enforce this.

    Constructed standalone (``Slot(slot_id=0, n_ctas=4)``) the slot owns a
    private one-row bank, preserving the original object API; the engine
    instead hands out views of a shared :class:`SlotBank`.
    """

    __slots__ = ("slot_id", "n_ctas", "bank", "_row", "observer")

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
    def _codes(self) -> np.ndarray:
        return self.bank.codes[self._row]

    @property
    def cta_states(self) -> list[SlotState]:
        """The CTA state words as enum members (a fresh list per access)."""
        return [_STATES[c] for c in self._codes]

    @property
    def query_id(self) -> int | None:
        """Id of the query currently owned by the slot (None when empty)."""
        qid = int(self.bank.query_ids[self._row])
        return None if qid < 0 else qid

    @query_id.setter
    def query_id(self, qid: int | None) -> None:
        self.bank.query_ids[self._row] = -1 if qid is None else qid

    @property
    def queries_served(self) -> int:
        return int(self.bank.queries_served[self._row])

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
        if (c == first).all():
            return _STATES[first]
        for code in (_WORK, _FINISH, _DONE):
            if (c == code).any():
                return _STATES[code]
        return SlotState.NONE

    @property
    def all_finished(self) -> bool:
        return bool((self._codes == _FINISH).all())

    @property
    def is_free(self) -> bool:
        c = self._codes
        return bool(((c == _NONE) | (c == _DONE)).all())

    # ---------------------------------------------------------- host side
    def host_set(self, new: SlotState) -> None:
        """Host-side transition applied to every CTA state."""
        codes = self._codes
        nc = _CODE[new]
        ok = _ALLOWED_MATRIX[codes, nc]
        if not ok.all():
            i = int(np.argmin(ok))
            raise StateTransitionError(
                f"slot {self.slot_id} CTA {i}: {_STATES[codes[i]]} → {new}"
            )
        old = self.state
        codes[:] = nc
        if self.observer is not None:
            self.observer(self.slot_id, old, new)

    def dispatch(self, query_id: int) -> None:
        """NONE/DONE → WORK with a query attached."""
        self.host_set(SlotState.WORK)
        self.query_id = query_id

    def collect(self) -> int:
        """FINISH → DONE; returns the completed query id."""
        if not self.all_finished:
            raise StateTransitionError(
                f"slot {self.slot_id}: collect before all CTAs finished"
            )
        self.host_set(SlotState.DONE)
        qid, self.query_id = self.query_id, None
        self.bank.queries_served[self._row] += 1
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
        old = self.state
        self._codes[:] = _QUIT
        self.query_id = None
        if self.observer is not None:
            self.observer(self.slot_id, old, SlotState.QUIT)

    # ----------------------------------------------------------- GPU side
    def advance_cta(self, cta: int) -> None:
        """GPU-side transition WORK → FINISH for one CTA."""
        if not 0 <= cta < self.n_ctas:
            raise IndexError("cta index out of range")
        codes = self._codes
        cur = codes[cta]
        if cur != _WORK:
            raise StateTransitionError(
                f"slot {self.slot_id} CTA {cta}: GPU may only advance WORK, "
                f"saw {_STATES[cur]}"
            )
        codes[cta] = _FINISH
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
        codes = self._codes
        old = _STATES[codes[cta]]
        codes[cta] = _NONE
        if self.observer is not None:
            self.observer(self.slot_id, old, SlotState.NONE)

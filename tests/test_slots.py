"""Unit tests for the slot state machine (Fig. 5)."""

from types import SimpleNamespace

import pytest

from repro.core.slots import Slot, SlotBank, SlotState, StateTransitionError


def test_lifecycle():
    s = Slot(slot_id=0, n_ctas=2)
    assert s.state is SlotState.NONE and s.is_free
    s.dispatch(query_id=7)
    assert s.state is SlotState.WORK and s.query_id == 7
    s.advance_cta(0)
    assert not s.all_finished
    assert s.state is SlotState.WORK  # least-advanced CTA governs
    s.advance_cta(1)
    assert s.all_finished and s.state is SlotState.FINISH
    qid = s.collect()
    assert qid == 7 and s.state is SlotState.DONE and s.is_free
    assert s.queries_served == 1
    s.dispatch(8)  # slot reuse
    s.advance_cta(0)
    s.advance_cta(1)
    s.collect()
    s.retire()
    assert s.state is SlotState.QUIT


def test_collect_before_finish_rejected():
    s = Slot(0, 2)
    s.dispatch(1)
    s.advance_cta(0)
    with pytest.raises(StateTransitionError):
        s.collect()


def test_gpu_can_only_advance_work():
    s = Slot(0, 1)
    with pytest.raises(StateTransitionError):
        s.advance_cta(0)  # NONE: host owns it
    s.dispatch(1)
    s.advance_cta(0)
    with pytest.raises(StateTransitionError):
        s.advance_cta(0)  # already FINISH


def test_dispatch_while_working_rejected():
    s = Slot(0, 1)
    s.dispatch(1)
    with pytest.raises(StateTransitionError):
        s.dispatch(2)


def test_retire_from_none():
    s = Slot(0, 1)
    s.retire()
    assert s.state is SlotState.QUIT
    with pytest.raises(StateTransitionError):
        s.dispatch(1)


def test_cta_index_bounds():
    s = Slot(0, 2)
    s.dispatch(1)
    with pytest.raises(IndexError):
        s.advance_cta(2)


def test_n_ctas_validation():
    with pytest.raises(ValueError):
        Slot(0, 0)


def test_force_retire_from_any_state():
    for prep in (
        lambda s: None,                       # NONE
        lambda s: s.dispatch(1),              # WORK
        lambda s: (s.dispatch(1), s.advance_cta(0), s.advance_cta(1)),  # FINISH
    ):
        s = Slot(0, 2)
        prep(s)
        s.force_retire()
        assert s.state is SlotState.QUIT and s.query_id is None
        with pytest.raises(StateTransitionError):
            s.dispatch(2)  # QUIT is terminal even after forced recovery


def test_corrupt_cta_blocks_finish():
    s = Slot(0, 2)
    s.dispatch(1)
    s.corrupt_cta(0)  # out-of-protocol regression to NONE
    s.advance_cta(1)
    assert not s.all_finished
    with pytest.raises(StateTransitionError):
        s.collect()
    s.force_retire()  # the watchdog's way out
    assert s.state is SlotState.QUIT


def test_random_interleavings_never_corrupt_state():
    """Property-style check: any interleaving of host/GPU/watchdog ops
    either succeeds with the expected post-state or raises
    StateTransitionError leaving the slot untouched."""
    import random

    legal = {
        "dispatch": lambda pre: all(
            c in (SlotState.NONE, SlotState.DONE) for c in pre
        ),
        "advance": lambda pre, cta: pre[cta] is SlotState.WORK,
        "collect": lambda pre: all(c is SlotState.FINISH for c in pre),
        "retire": lambda pre: all(
            c in (SlotState.NONE, SlotState.DONE) for c in pre
        ),
    }
    for trial in range(100):
        rng = random.Random(trial)
        n_ctas = rng.randint(1, 3)
        s = Slot(0, n_ctas)
        qid = 0
        for _ in range(50):
            op = rng.choices(
                ["dispatch", "advance", "collect", "retire", "force"],
                weights=[30, 35, 15, 10, 10],
            )[0]
            pre = list(s.cta_states)
            pre_qid, pre_served = s.query_id, s.queries_served
            cta = rng.randrange(n_ctas)
            try:
                if op == "dispatch":
                    qid += 1
                    s.dispatch(qid)
                    assert legal["dispatch"](pre)
                    assert s.state is SlotState.WORK and s.query_id == qid
                elif op == "advance":
                    s.advance_cta(cta)
                    assert legal["advance"](pre, cta)
                    assert s.cta_states[cta] is SlotState.FINISH
                elif op == "collect":
                    got = s.collect()
                    assert legal["collect"](pre)
                    assert got == pre_qid and s.query_id is None
                    assert s.queries_served == pre_served + 1
                elif op == "retire":
                    s.retire()
                    assert legal["retire"](pre)
                    assert s.state is SlotState.QUIT
                else:
                    s.force_retire()  # always legal
                    assert s.state is SlotState.QUIT and s.query_id is None
            except StateTransitionError:
                # the op must have been illegal, and must not have mutated
                assert op != "force"
                if op == "advance":
                    assert not legal[op](pre, cta)
                else:
                    assert not legal[op](pre)
                assert s.cta_states == pre
                assert s.query_id == pre_qid
                assert s.queries_served == pre_served
            # global invariant: the aggregate state is always well-defined
            assert s.state in SlotState
            assert s.queries_served >= pre_served


def test_bank_runtime_columns_follow_slot_events():
    """Dispatch stamps are set on dispatch and cleared on collect and
    force_retire; the epoch moves only when the watchdog revokes a slot;
    the owning thread's counters and live list follow every move."""
    bank = SlotBank(3, 2, owned=[[0, 2], [1]])
    job = SimpleNamespace(query_id=41)

    def words(s):
        return (bank.jobs[s], bank.dispatched_at[s], bank.ready_at[s],
                bank.epochs[s])

    def is_empty(s, epoch):
        return words(s) == (None, None, None, epoch)

    def counters():
        return bank.live, bank.n_free, bank.n_in_flight, bank.n_ready

    assert all(is_empty(s, 0) for s in range(3))
    assert bank.owner == [0, 1, 0]
    assert counters() == ([[0, 2], [1]], [2, 1], [0, 0], [0, 0])

    bank.dispatch(1, job, 7.5)
    assert bank[1].state is SlotState.WORK and bank[1].query_id == 41
    assert bank.jobs[1] is job and bank.dispatched_at[1] == 7.5
    assert bank.ready_at[1] is None and bank.epochs[1] == 0
    assert is_empty(0, 0) and is_empty(2, 0)  # neighbours untouched
    assert counters() == ([[0, 2], [1]], [2, 0], [0, 1], [0, 0])

    for cta in range(2):
        assert not bank.all_finished(1)
        bank[1].advance_cta(cta)
    assert bank.all_finished(1) and not bank.all_finished(0)
    bank.mark_ready(1, 9.0)  # the scheduler's stamp: FINISH visible
    assert bank.ready_at[1] == 9.0
    assert counters() == ([[0, 2], [1]], [2, 0], [0, 1], [0, 1])
    assert bank.collect(1) is job
    assert bank[1].state is SlotState.DONE and bank[1].queries_served == 1
    assert is_empty(1, 0)
    assert counters() == ([[0, 2], [1]], [2, 1], [0, 0], [0, 0])

    bank.dispatch(1, job, 11.0)  # slot reuse, same epoch
    assert bank.epochs[1] == 0
    assert bank.force_retire(1) is job
    assert bank[1].state is SlotState.QUIT and bank[1].query_id is None
    assert is_empty(1, 1)
    assert bank.epochs == [0, 1, 0]
    assert counters() == ([[0, 2], []], [2, 0], [0, 0], [0, 0])

    with pytest.raises(StateTransitionError):
        bank.collect(0)  # never dispatched: Fig. 5 still guards the bank path
    assert is_empty(0, 0)
    assert counters() == ([[0, 2], []], [2, 0], [0, 0], [0, 0])

    assert bank.force_retire(2) is None  # a free slot can be revoked too
    assert counters() == ([[0], []], [1, 0], [0, 0], [0, 0])


def test_bank_codes_view_the_state_bytes():
    """``codes`` is the bank's storage seen as an array, not a mirror."""
    bank = SlotBank(2, 3)
    bank[1].dispatch(5)
    bank[1].advance_cta(2)
    assert bank.codes.tolist() == [[0, 0, 0], [1, 1, 2]]
    bank.codes[0, 1] = 1  # writes through: slot 0 now has a CTA in WORK
    assert bank[0].cta_states[1] is SlotState.WORK and not bank[0].is_free
    with pytest.raises(ValueError):
        SlotBank(3, 2, owned=[[0, 1], [1, 2]])  # slot 1 dealt twice

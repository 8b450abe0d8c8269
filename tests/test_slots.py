"""Unit tests for the slot state machine (Fig. 5) on ``SlotBank`` rows."""

import random
from types import SimpleNamespace

import pytest

from repro.core.slots import SlotBank, SlotState, StateTransitionError

NONE, WORK, FINISH, DONE, QUIT = SlotState


def _job(qid):
    return SimpleNamespace(query_id=qid)


def _ctas(bank, s):
    """Slot ``s``'s CTA state words as enum members."""
    states = list(SlotState)
    return [states[c] for c in bank.codes[s].tolist()]


def _least_advanced(ctas):
    """The aggregate of Fig. 5, recomputed from the words."""
    if len(set(ctas)) == 1:
        return ctas[0]
    return next((st for st in (WORK, FINISH, DONE) if st in ctas), NONE)


def _counting(n_slots, n_ctas):
    bank = SlotBank(n_slots, n_ctas)
    bank.transitions = [[0] * len(SlotState) for _ in SlotState]
    return bank


def test_lifecycle():
    bank = _counting(1, 2)
    assert bank.state(0) is NONE and bank.n_free == [1]
    bank.dispatch(0, _job(7), 0.0)
    assert bank.state(0) is WORK and bank.query_ids[0] == 7
    bank.advance_cta(0, 0)
    assert not bank.all_finished(0)
    assert bank.state(0) is WORK  # least-advanced CTA governs
    bank.advance_cta(0, 1)
    assert bank.all_finished(0) and bank.state(0) is FINISH
    assert bank.collect(0).query_id == 7
    assert bank.state(0) is DONE and bank.query_ids[0] is None
    assert bank.n_free == [1] and bank.queries_served[0] == 1
    bank.dispatch(0, _job(8), 1.0)  # slot reuse
    bank.advance_cta(0, 0)
    bank.advance_cta(0, 1)
    bank.collect(0)
    bank.host_set(0, QUIT)  # retire
    assert bank.state(0) is QUIT
    # host-side moves count once per slot, GPU-side ones once per CTA
    assert bank.transition_counts() == {
        ("none", "work"): 1, ("work", "finish"): 4, ("finish", "done"): 2,
        ("done", "work"): 1, ("done", "quit"): 1,
    }


def test_collect_before_finish_rejected():
    bank = SlotBank(1, 2)
    bank.dispatch(0, _job(1), 0.0)
    bank.advance_cta(0, 0)
    with pytest.raises(StateTransitionError):
        bank.collect(0)
    bank.advance_cta(0, 1)
    with pytest.raises(StateTransitionError):
        bank.dispatch(0, _job(2), 1.0)  # FINISH must be collected first
    assert bank.query_ids[0] == 1 and bank.n_in_flight == [1]


def test_gpu_can_only_advance_work():
    bank = SlotBank(1, 1)
    with pytest.raises(StateTransitionError):
        bank.advance_cta(0, 0)  # NONE: host owns it
    bank.dispatch(0, _job(1), 0.0)
    bank.advance_cta(0, 0)
    with pytest.raises(StateTransitionError):
        bank.advance_cta(0, 0)  # already FINISH


def test_dispatch_while_working_rejected():
    bank = SlotBank(1, 1)
    bank.dispatch(0, _job(1), 0.0)
    with pytest.raises(StateTransitionError):
        bank.dispatch(0, _job(2), 1.0)
    assert bank.jobs[0].query_id == 1 and bank.n_free == [0]


def test_retire_from_none():
    bank = SlotBank(1, 1)
    bank.host_set(0, QUIT)
    assert bank.state(0) is QUIT
    with pytest.raises(StateTransitionError):
        bank.dispatch(0, _job(1), 0.0)


def test_cta_index_bounds():
    bank = SlotBank(2, 2)
    bank.dispatch(0, _job(1), 0.0)
    for op in (bank.advance_cta, bank.corrupt_cta):
        with pytest.raises(IndexError):
            op(0, 2)  # would reach slot 1's first word
    assert _ctas(bank, 1) == [NONE, NONE]


def test_n_ctas_validation():
    with pytest.raises(ValueError):
        SlotBank(1, 0)
    with pytest.raises(ValueError):
        SlotBank(0, 1)


def test_force_retire_from_any_state():
    for prep, old in (
        (lambda b: None, "none"),
        (lambda b: b.dispatch(0, _job(1), 0.0), "work"),
        (lambda b: (b.dispatch(0, _job(1), 0.0), b.advance_cta(0, 0),
                    b.advance_cta(0, 1)), "finish"),
    ):
        bank = _counting(1, 2)
        prep(bank)
        bank.force_retire(0)
        assert bank.state(0) is QUIT and bank.query_ids[0] is None
        assert bank.transition_counts()[(old, "quit")] == 1
        with pytest.raises(StateTransitionError):
            bank.dispatch(0, _job(2), 1.0)  # QUIT is terminal after recovery


def test_corrupt_cta_blocks_finish():
    bank = _counting(1, 2)
    bank.dispatch(0, _job(1), 0.0)
    bank.corrupt_cta(0, 0)  # out-of-protocol regression to NONE
    bank.advance_cta(0, 1)
    assert not bank.all_finished(0)
    with pytest.raises(StateTransitionError):
        bank.collect(0)
    assert bank.state(0) is FINISH  # a NONE word never governs the aggregate
    assert bank.force_retire(0).query_id == 1  # the watchdog's way out
    assert bank.state(0) is QUIT
    assert bank.transition_counts() == {
        ("none", "work"): 1, ("work", "none"): 1, ("work", "finish"): 1,
        ("finish", "quit"): 1,
    }


def test_random_interleavings_never_corrupt_state():
    """Property-style check: any interleaving of host/GPU/watchdog ops on
    one row either succeeds with the expected post-state or raises
    StateTransitionError leaving the row untouched; the neighbouring row
    never moves, and the transition table counts each success once."""
    legal = {
        "dispatch": lambda pre: all(c in (NONE, DONE) for c in pre),
        "advance": lambda pre, cta: pre[cta] is WORK,
        "collect": lambda pre: all(c is FINISH for c in pre),
        "retire": lambda pre: all(c in (NONE, DONE) for c in pre),
    }
    for trial in range(100):
        rng = random.Random(trial)
        n_ctas = rng.randint(1, 3)
        s = rng.randrange(2)
        bank = _counting(2, n_ctas)
        expected: dict[tuple[str, str], int] = {}

        def count(old, new):
            key = (old.value, new.value)
            expected[key] = expected.get(key, 0) + 1

        qid = 0
        for _ in range(50):
            op = rng.choices(
                ["dispatch", "advance", "collect", "retire", "force"],
                weights=[30, 35, 15, 10, 10],
            )[0]
            pre = _ctas(bank, s)
            pre_qid, pre_served = bank.query_ids[s], bank.queries_served[s]
            cta = rng.randrange(n_ctas)
            try:
                if op == "dispatch":
                    qid += 1
                    bank.dispatch(s, _job(qid), 0.0)
                    assert legal["dispatch"](pre)
                    assert bank.state(s) is WORK and bank.query_ids[s] == qid
                    count(_least_advanced(pre), WORK)
                elif op == "advance":
                    bank.advance_cta(s, cta)
                    assert legal["advance"](pre, cta)
                    assert _ctas(bank, s)[cta] is FINISH
                    count(WORK, FINISH)
                elif op == "collect":
                    got = bank.collect(s)
                    assert legal["collect"](pre)
                    assert got.query_id == pre_qid and bank.query_ids[s] is None
                    assert bank.queries_served[s] == pre_served + 1
                    count(FINISH, DONE)
                elif op == "retire":
                    bank.host_set(s, QUIT)
                    assert legal["retire"](pre)
                    assert bank.state(s) is QUIT
                    count(_least_advanced(pre), QUIT)
                else:
                    bank.force_retire(s)  # always legal
                    assert bank.state(s) is QUIT and bank.query_ids[s] is None
                    count(_least_advanced(pre), QUIT)
            except StateTransitionError:
                # the op must have been illegal, and must not have mutated
                assert op != "force"
                if op == "advance":
                    assert not legal[op](pre, cta)
                else:
                    assert not legal[op](pre)
                assert _ctas(bank, s) == pre
                assert bank.query_ids[s] == pre_qid
                assert bank.queries_served[s] == pre_served
            # global invariants: the aggregate is always the least-advanced
            # word, the other row is untouched, and nothing is miscounted
            assert bank.state(s) is _least_advanced(_ctas(bank, s))
            assert bank.queries_served[s] >= pre_served
            assert _ctas(bank, 1 - s) == [NONE] * n_ctas
            assert bank.transition_counts() == expected


def test_bank_runtime_columns_follow_slot_events():
    """Dispatch stamps are set on dispatch and cleared on collect and
    force_retire; the epoch moves only when the watchdog revokes a slot;
    the owning thread's counters and live list follow every move."""
    bank = SlotBank(3, 2, owned=[[0, 2], [1]])
    job = _job(41)

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
    assert bank.state(1) is WORK and bank.query_ids[1] == 41
    assert bank.jobs[1] is job and bank.dispatched_at[1] == 7.5
    assert bank.ready_at[1] is None and bank.epochs[1] == 0
    assert is_empty(0, 0) and is_empty(2, 0)  # neighbours untouched
    assert counters() == ([[0, 2], [1]], [2, 0], [0, 1], [0, 0])

    for cta in range(2):
        assert not bank.all_finished(1)
        bank.advance_cta(1, cta)
    assert bank.all_finished(1) and not bank.all_finished(0)
    bank.mark_ready(1, 9.0)  # the scheduler's stamp: FINISH visible
    assert bank.ready_at[1] == 9.0
    assert counters() == ([[0, 2], [1]], [2, 0], [0, 1], [0, 1])
    assert bank.collect(1) is job
    assert bank.state(1) is DONE and bank.queries_served[1] == 1
    assert is_empty(1, 0)
    assert counters() == ([[0, 2], [1]], [2, 1], [0, 0], [0, 0])

    bank.dispatch(1, job, 11.0)  # slot reuse, same epoch
    assert bank.epochs[1] == 0
    assert bank.force_retire(1) is job
    assert bank.state(1) is QUIT and bank.query_ids[1] is None
    assert is_empty(1, 1)
    assert bank.epochs == [0, 1, 0]
    assert counters() == ([[0, 2], []], [2, 0], [0, 0], [0, 0])

    with pytest.raises(StateTransitionError):
        bank.collect(0)  # never dispatched: Fig. 5 still guards the bank path
    assert is_empty(0, 0)
    assert counters() == ([[0, 2], []], [2, 0], [0, 0], [0, 0])

    assert bank.force_retire(2) is None  # a free slot can be revoked too
    assert counters() == ([[0], []], [1, 0], [0, 0], [0, 0])
    assert bank.transitions is None and bank.transition_counts() == {}


def test_bank_codes_view_the_state_bytes():
    """``codes`` is the bank's storage seen as an array, not a mirror."""
    bank = SlotBank(2, 3)
    bank.dispatch(1, _job(5), 0.0)
    bank.advance_cta(1, 2)
    assert bank.codes.tolist() == [[0, 0, 0], [1, 1, 2]]
    bank.codes[0, 1] = 1  # writes through: slot 0 now has a CTA in WORK
    assert _ctas(bank, 0)[1] is WORK and bank.state(0) is WORK
    with pytest.raises(StateTransitionError):
        bank.host_set(0, WORK)  # no longer free
    with pytest.raises(ValueError):
        SlotBank(3, 2, owned=[[0, 1], [1, 2]])  # slot 1 dealt twice

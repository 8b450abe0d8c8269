"""Unit tests for the discrete-event engine and list scheduler."""

import heapq
import itertools
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.engine import Simulator, list_schedule


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda s: order.append("b"))
    sim.schedule(1.0, lambda s: order.append("a"))
    sim.schedule(9.0, lambda s: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_ties_break_by_insertion():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda s: order.append(1))
    sim.schedule(1.0, lambda s: order.append(2))
    sim.run()
    assert order == [1, 2]


def test_callbacks_can_schedule():
    sim = Simulator()
    hits = []

    def tick(s):
        hits.append(s.now)
        if s.now < 3:
            s.after(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    assert hits == [0.0, 1.0, 2.0, 3.0]


def test_run_until_stops_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda s: None)
    t = sim.run(until=5.0)
    assert t == 5.0 and sim.pending == 1


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.schedule(2.0, lambda s: s.schedule(1.0, lambda s2: None))
    with pytest.raises(ValueError):
        sim.run()


def test_posts_need_a_drain():
    sim = Simulator()
    sim.post(1.0, "x")
    with pytest.raises(ValueError, match="on_post"):
        sim.run()
    assert sim.pending == 1


def test_event_budget_guard():
    sim = Simulator()

    def forever(s):
        s.after(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


# An event: (time, loud, children); a loud event schedules its children
# (delay, loud, grandchildren) when it runs, a quiet post schedules nothing.
# Small integer times make exact ties common.
_child = st.tuples(st.integers(0, 2), st.booleans(), st.just(()))
_event = st.tuples(
    st.integers(0, 4), st.booleans(),
    st.lists(st.tuples(st.integers(0, 2), st.booleans(), st.lists(_child, max_size=2)),
             max_size=3),
)


def _single_heap_order(program):
    """``(label, time)`` per event, in the order one ``(time, seq)`` heap
    of every event gives; an event's label is its sequence number."""
    heap, seq, order = [], itertools.count(), []
    for when, loud, children in program:
        heapq.heappush(heap, (float(when), next(seq), loud, children))
    while heap:
        when, label, loud, children = heapq.heappop(heap)
        order.append((label, when))
        for delay, child_loud, grandchildren in children if loud else ():
            heapq.heappush(heap, (when + delay, next(seq), child_loud, grandchildren))
    return order


@settings(max_examples=300, deadline=None)
@given(st.lists(_event, max_size=8), st.integers(0, 6))
def test_loud_and_quiet_events_keep_single_heap_order(program, until):
    """Loud events and quiet posts, exact time ties included, run in the
    order one ``(time, seq)`` heap gives; ``next_time`` reports loud events
    only, ``pending`` counts both queues, and ``run(until=)`` and the
    past-time check hold for both."""
    sim, seq = Simulator(), itertools.count()
    order, loud_times, n_quiet = [], [], [0]

    def check_views():
        assert sim.next_time() == min(loud_times, default=math.inf)
        assert sim.pending == len(loud_times) + n_quiet[0]

    def add(when, loud, children):
        label = next(seq)  # the simulator's sequence number too
        if loud:
            loud_times.append(when)
            sim.schedule(when, partial(run_loud, label, children))
        else:
            n_quiet[0] += 1
            sim.post(when, label)

    def run_loud(label, children, sim_):
        loud_times.remove(sim_.now)
        order.append(label)
        check_views()
        for delay, child_loud, grandchildren in children:
            add(sim_.now + delay, child_loud, grandchildren)
        check_views()

    def drain(posts, stop):
        while posts and posts[0] < stop:
            when, label, _ = heapq.heappop(posts)
            n_quiet[0] -= 1
            order.append(label)
            check_views()
        return when

    for when, loud, children in program:
        add(float(when), loud, children)
    check_views()
    expected = _single_heap_order(program)
    sim.run(until=until, on_post=drain)
    assert order == [label for label, when in expected if when <= until]
    assert sim._events_run == len(order)
    if sim.pending:
        assert sim.now == until
        with pytest.raises(ValueError, match="past"):
            sim.post(until - 1.0, "late")
        with pytest.raises(ValueError, match="past"):
            sim.schedule(until - 1.0, lambda s: None)
    sim.run(on_post=drain)
    assert order == [label for label, _ in expected]
    assert sim._events_run == len(expected) and sim.pending == 0
    assert sim.next_time() == math.inf


def test_list_schedule_single_wave():
    sched = list_schedule([5.0, 3.0, 4.0], n_concurrent=3)
    assert sched.start_us == (0.0, 0.0, 0.0)
    assert sched.kernel_end_us == 5.0


def test_list_schedule_waves():
    sched = list_schedule([4.0, 4.0, 2.0], n_concurrent=2)
    # third block waits for the earliest slot (the 2.0-free one? both busy
    # until 4; earliest free is 4 -> starts 4, ends 6... wait: slots free at
    # 4 and 4; third starts at 4.
    assert sched.start_us[2] == 4.0
    assert sched.kernel_end_us == 6.0


def test_list_schedule_offset():
    sched = list_schedule([1.0], 4, t0=10.0)
    assert sched.start_us[0] == 10.0 and sched.kernel_end_us == 11.0


def test_list_schedule_validation():
    with pytest.raises(ValueError):
        list_schedule([1.0], 0)
    with pytest.raises(ValueError):
        list_schedule([-1.0], 1)


def test_list_schedule_empty():
    sched = list_schedule([], 2, t0=3.0)
    assert sched.kernel_end_us == 3.0

"""The slot scheduler against its frozen reference schedules.

``tests/golden/schedules.json`` was written by
``tests/golden/make_schedules.py`` on the last commits that still executed
every host wake: nine schedules at ``a2fd882`` under ``tick_mode="loop"``
(the per-slot reference pass), nine more at ``c52a86c`` (the dense numpy
pass) at the paper's 16 x 8 shape and on the admission paths.  Both passes
are gone; the change-driven pass that replaced them must reproduce those
schedules *exactly*: same QueryRecords, report scalars, PCIe ledger (float
sums included), resilience meta and telemetry rendering, across healthy
runs, fault plans, degradation windows, drops, shedding, priorities and
multi-thread partitions.  Anything less means a change to the scheduler
moved scheduling, not just its cost.
"""

from __future__ import annotations

import json
from functools import partial
from heapq import heappop

import numpy as np
import pytest

from repro.core.cluster import ShardedServer
from repro.core.dynamic_batcher import DynamicBatchConfig
from repro.core.host import partition_slots
from repro.core.serving import ServeConfig
from repro.core.slots import _CODE as CODE
from repro.core.slots import SlotState
from repro.cli import main as cli_main
from repro.graphs import (
    build_cagra,
    build_hnsw,
    build_nsg,
    build_nsw,
)
from repro.parallel import make_pool

from .golden import make_schedules as golden

GOLDEN = json.loads(golden.FIXTURE.read_text())
DROPS = "deadline-drops"


def _check(name):
    assert golden.frozen(name) == GOLDEN[name]


def test_fixture_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(golden.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(set(golden.SCENARIOS) - {DROPS}))
def test_soa_tick_byte_identical(scenario):
    """Records, report scalars, meta and telemetry equal the frozen run."""
    assert "telemetry_sha256" in GOLDEN[scenario]
    _check(scenario)


def test_soa_tick_parity_with_drops():
    """Deadline drops surface exactly as in the frozen run."""
    assert GOLDEN[DROPS]["meta"]["dropped"] > 0  # the scenario exercises drops
    _check(DROPS)


def _bank_reductions(bank, owned):
    """Per-thread ``(live, n_free, n_in_flight, n_ready)`` recomputed from
    the bank's words — what the deleted mask reductions read every wake."""
    codes = bank.codes
    quit_ = (codes == CODE[SlotState.QUIT]).all(axis=1)
    free = (
        (codes == CODE[SlotState.NONE]) | (codes == CODE[SlotState.DONE])
    ).all(axis=1)
    live = [[s for s in mine if not quit_[s]] for mine in owned]
    return (
        live,
        [sum(bool(free[s]) for s in mine) for mine in live],
        [sum(bank.dispatched_at[s] is not None for s in mine) for mine in owned],
        [sum(bank.ready_at[s] is not None for s in mine) for mine in owned],
    )


@pytest.mark.parametrize("scenario", sorted(golden.SCENARIOS))
def test_bank_counters_equal_bank_reductions_after_every_event(scenario):
    """The per-thread counters and live lists the host pass trusts instead
    of scanning are, after each simulator event (watchdog kills, corrupt
    CTAs and retry exhaustion included), what a scan would have found."""
    run = golden.scheduler_run(scenario)
    bank, cfg = run.bank, run.cfg
    owned = partition_slots(cfg.n_slots, cfg.host_threads)
    sim, checked = run.sim, []
    schedule, sim_run = sim.schedule, sim.run

    def check(when):
        assert (bank.live, bank.n_free, bank.n_in_flight, bank.n_ready) == (
            _bank_reductions(bank, owned)
        )
        # one copy of every word: a slot runs a job iff it is stamped
        assert [j is not None for j in bank.jobs] == [
            d is not None for d in bank.dispatched_at
        ]
        checked.append(when)

    def loud(fn, sim):
        fn(sim)
        check(sim.now)

    def quiet(drain, posts, stop):
        # the non-last CTA FINISHes: hand the drain one post at a time
        while posts and posts[0] < stop:
            when = drain([heappop(posts)], stop)
            check(when)
        return when

    sim.schedule = lambda when, fn: schedule(when, partial(loud, fn))
    sim.run = lambda on_post: sim_run(on_post=partial(quiet, on_post))
    run.run()
    assert len(checked) == run.sim._events_run > 0


#: ``Simulator._events_run`` of the scenarios whose wakes are impure, at
#: ``c52a86c`` — where every wake was executed.
DENSE_EVENTS = {
    "naive-state-mode": 83,
    "faults+policy": 694,
    "faults-default-policy": 4263,
    "retry-exhaustion": 610,
    "degrade-overload": 403,
    "hybrid-tier-pcie-stall": 435,
}


@pytest.mark.parametrize("scenario", sorted(DENSE_EVENTS))
def test_impure_wakes_are_all_executed(scenario):
    """Under ``state_mode="naive"`` (a wake polls across the link) or a
    resilience policy (a wake runs the watchdog and the degrade check) no
    wake is skipped: the event count is the dense pass's."""
    run = golden.scheduler_run(scenario)
    assert not run.pure_wakes
    run.run()
    assert run.sim._events_run == DENSE_EVENTS[scenario]


def test_removed_selectors_are_type_errors(capsys):
    """``tick_mode``, ``parallel_mode`` and ``build_backend`` are gone, not
    ignored."""
    base = np.zeros((8, 4), dtype=np.float32)
    with pytest.raises(TypeError):
        DynamicBatchConfig(n_slots=1, n_parallel=1, k=1, tick_mode="soa")
    with pytest.raises(TypeError):
        ServeConfig(parallel_mode="process")
    with pytest.raises(TypeError):
        ShardedServer(base, partial(build_nsw, m=2), parallel_mode="process")
    with pytest.raises(TypeError):
        build_nsw(base, m=2, parallel_mode="process")
    with pytest.raises(TypeError):
        make_pool(2, "thread")
    for build in (build_hnsw, build_nsg, build_cagra):
        with pytest.raises(TypeError):
            build(base, build_backend="vectorized")
    # build_nsw keeps the keyword for one frozen benchmark call site, but
    # it selects nothing: anything other than that call's value is refused
    with pytest.raises(ValueError, match=r"oracles\.py::scalar_build_nsw"):
        build_nsw(base, m=2, build_backend="scalar")
    for cmd in (["build", "-o", "unused.npz"], ["serve"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(cmd + ["--build-backend", "vectorized"])
        assert exc.value.code == 2
        assert "--build-backend" in capsys.readouterr().err

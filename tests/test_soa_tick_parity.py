"""The slot scheduler against its frozen reference schedules.

``tests/golden/schedules.json`` was written at commit ``a2fd882`` by
``tests/golden/make_schedules.py`` under ``tick_mode="loop"`` — the
per-slot reference host pass that commit still carried beside the
vectorized one.  The reference pass and its selector are gone; the one
remaining host pass must reproduce those schedules *exactly*: same
QueryRecords, report scalars, PCIe ledger, resilience meta and telemetry
rendering, across healthy runs, fault plans, degradation windows, drops and
multi-thread partitions.  Anything less means a change to the scheduler
moved scheduling, not just its cost.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from repro.core.cluster import ShardedServer
from repro.core.dynamic_batcher import DynamicBatchConfig
from repro.core.serving import ServeConfig
from repro.graphs import build_nsw
from repro.parallel import make_pool

from .golden import make_schedules as golden

GOLDEN = json.loads(golden.FIXTURE.read_text())
DROPS = "deadline-drops"


def _check(name):
    assert golden.freeze(*golden.serve(golden.SCENARIOS[name])) == GOLDEN[name]


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


def test_removed_selectors_are_type_errors():
    """``tick_mode`` and ``parallel_mode`` are gone, not ignored."""
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

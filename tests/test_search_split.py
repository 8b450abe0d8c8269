"""Split lockstep searches: one engine per query chunk, stepped on threads.

A batch of at least ``2 × MIN_ROWS_PER_THREAD`` rows is cut into contiguous
query chunks (``repro.parallel.pool.thread_chunks``), one
:class:`LockstepEngine` each, and the chunks run concurrently.  Rows never
interact, so the stitched result must be the one-engine batch bit for bit.
The tests patch ``MIN_ROWS_PER_THREAD`` to 1 and ``cores`` to 3 so that
every small batch below splits, into uneven chunks, on any host; the
reference side patches ``cores`` to 1.  That every system's rows keep
their bits under the split is also ``test_batch_invariance.py``'s property.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro.parallel.pool as pool
import repro.search.batched as batched
from repro.core import ALGASSystem
from repro.data import load_dataset
from repro.graphs import build_cagra
from repro.parallel import on_threads
from repro.search.batched import LockstepEngine, batched_multi_cta_search

from .golden import make_serves


@pytest.fixture(scope="module")
def ds():
    return load_dataset("sift1m-mini", n=1500, n_queries=24, gt_k=8, seed=2)


@pytest.fixture(scope="module")
def graph(ds):
    return build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=0)


@pytest.fixture
def split(monkeypatch):
    """Returns ``use(n_cores)``: from then on searches see ``n_cores`` cores
    and split down to one row per engine; ``engines`` lists the engine
    count of every search run since."""
    engines: list[int] = []
    threads = batched.on_threads

    def counted(fn, engs):
        engines.append(len(engs))
        return threads(fn, engs)

    monkeypatch.setattr(batched, "on_threads", counted)
    monkeypatch.setattr(pool, "MIN_ROWS_PER_THREAD", 1)

    def use(n_cores: int) -> list[int]:
        monkeypatch.setattr(pool, "cores", lambda: n_cores)
        engines.clear()
        return engines

    return use


def test_chunks_follow_the_row_rule(monkeypatch):
    monkeypatch.setattr(pool, "cores", lambda: 2)
    chunks = pool.thread_chunks
    # the 8-CTA serves of 1 024 queries split; 2 048-row searches do not
    assert chunks(1024, 8) == [(0, 512), (512, 1024)]
    assert chunks(256, 8) == [(0, 256)]
    assert chunks(1024, 1) == [(0, 1024)]
    assert chunks(0, 8) == [(0, 0)]
    monkeypatch.setattr(pool, "cores", lambda: 3)
    assert chunks(6144, 1) == [(0, 2048), (2048, 4096), (4096, 6144)]
    monkeypatch.setattr(pool, "MIN_ROWS_PER_THREAD", 1)
    assert chunks(7, 8) == [(0, 2), (2, 4), (4, 7)]
    assert chunks(2, 8) == [(0, 1), (1, 2)]  # never an empty chunk


@pytest.mark.parametrize("n_parallel", [1, 8])
@pytest.mark.parametrize("precision", ["float32", "int8"])
def test_split_search_all_equals_one_engine(split, ds, graph, precision,
                                            n_parallel):
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=64,
                         batch_size=4, n_parallel=n_parallel,
                         precision=precision, seed=3)
    assert split(1) == []
    want = system.search_all(ds.queries)
    engines = split(3)
    got = system.search_all(ds.queries)
    assert engines == [3]
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[2] == want[2]


def test_split_keeps_the_per_cta_lists(split, ds, graph):
    def search():
        return batched_multi_cta_search(
            ds.base, graph, ds.queries, 8, 64, 4, metric=ds.metric,
        )

    split(1)
    want = search()
    split(2)
    got = search()
    assert got.traces == want.traces
    assert np.array_equal(got.counts, want.counts)
    for g, w in zip(got, want):
        assert g.ids.tobytes() == w.ids.tobytes()
        for (gi, gd), (wi, wd) in zip(g.extra["per_cta"], w.extra["per_cta"]):
            assert gi.tobytes() == wi.tobytes() and gd.tobytes() == wd.tobytes()


def test_split_reproduces_the_golden_serves(split):
    """Every serve entry point of ``tests/golden/serves.json`` with every
    search split across two engines."""
    engines = split(2)
    frozen = json.loads(make_serves.FIXTURE.read_text())
    assert make_serves.build() == frozen
    assert engines and set(engines) == {2}


def test_step_budget_failure_in_a_thread_surfaces_after_the_join(ds, graph):
    """The caller's engine finishes inside the budget; the thread's engine
    (capacity 128, so more than 40 rounds) exceeds it.  The error reaches
    the caller, and only once the thread is gone."""
    def engine(queries, capacity):
        return LockstepEngine(
            ds.base, graph, queries, np.arange(len(queries)),
            [np.array([0])] * len(queries), capacity, metric=ds.metric,
            record_trace=False,
        )

    baseline = threading.active_count()
    quick, slow = engine(ds.queries[:2], 4), engine(ds.queries[2:6], 128)
    with pytest.raises(RuntimeError, match="exceeded step budget"):
        on_threads(lambda e: e.run(40), [quick, slow])
    assert threading.active_count() == baseline
    assert quick._act.size == 0 and slow._act.size > 0


def test_no_thread_outlives_a_split_search(split, ds, graph):
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=64,
                         batch_size=4, seed=3)
    baseline = threading.active_count()
    engines = split(3)
    system.search_all(ds.queries)
    assert engines == [3]
    assert threading.active_count() == baseline

"""Split wave builds: insertion searches in per-core row chunks on threads.

Every lockstep insertion search of the builders (``_prefix_search``: NSW /
HNSW waves and refinement sweep, NSG's expansion logs) and of
``DynamicGraph`` insert waves (``batched_multi_cta_search``) cuts its rows
by the search split's rule (``repro.parallel.pool.thread_chunks``) and runs
the chunks concurrently.
Rows never interact, so the graph must be the one-core graph bit for bit.
The tests patch ``MIN_ROWS_PER_THREAD`` to 1 and ``cores`` to 3 so that
every wave splits, into uneven chunks, on any host, and shrink
``_MAX_ROWS`` so that each thread steps through several engines; the
reference side patches ``cores`` to 1.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.parallel.pool as pool
import repro.search.batched as search_batched
from repro.graphs import DynamicGraph, build_batched, build_cagra, build_hnsw
from repro.graphs import build_nsg, build_nsw


@pytest.fixture
def split(monkeypatch):
    """Returns ``use(n_cores)``: from then on insertion searches see
    ``n_cores`` cores and split down to one row per thread; ``threads``
    lists the thread count of every insertion search run since."""
    threads: list[int] = []
    real = build_batched.on_threads

    def counted(fn, ranges):
        threads.append(len(ranges))
        return real(fn, ranges)

    monkeypatch.setattr(build_batched, "on_threads", counted)
    monkeypatch.setattr(search_batched, "on_threads", counted)
    monkeypatch.setattr(build_batched, "_MAX_ROWS", 96)
    monkeypatch.setattr(pool, "MIN_ROWS_PER_THREAD", 1)

    def use(n_cores: int) -> list[int]:
        monkeypatch.setattr(pool, "cores", lambda: n_cores)
        threads.clear()
        return threads

    return use


@pytest.fixture(scope="module")
def corpus():
    return np.random.default_rng(11).standard_normal((600, 16)).astype(np.float32)


BUILDS = {
    "nsw": lambda pts: build_nsw(pts, m=4, ef_construction=16, seed=9),
    "hnsw": lambda pts: build_hnsw(pts, m=4, ef_construction=16, seed=9),
    "nsg": lambda pts: build_nsg(pts, out_degree=8, search_l=16, seed=9),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_split_build_equals_one_core(split, corpus, name):
    split(1)
    want = BUILDS[name](corpus)
    threads = split(3)
    got = BUILDS[name](corpus)
    assert 3 in threads  # the split is not a silent no-op
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()


def test_split_insert_wave_equals_one_core(split, corpus):
    """A ``DynamicGraph`` wave on a graph with tombstones (the alive mask
    and the kept point norms cross the split too), at one CTA a point and
    at eight."""
    base, wave = corpus[:400], corpus[400:]
    graph = build_cagra(base, graph_degree=10)

    def insert(n_ctas: int) -> list[np.ndarray]:
        d = DynamicGraph(base, graph, max_degree=12, ef=32)
        d.delete_batch(np.arange(0, 400, 7))
        d.insert_batch(wave, n_ctas=n_ctas)
        n = d.n_total
        return [d._adj[:n].copy(), d._counts[:n].copy(), d._alive[:n].copy()]

    for n_ctas in (1, 8):
        split(1)
        want = insert(n_ctas)
        threads = split(3)
        got = insert(n_ctas)
        assert 3 in threads
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_no_thread_outlives_a_split_build(split, corpus):
    baseline = threading.active_count()
    threads = split(3)
    build_nsw(corpus, m=4, ef_construction=16, seed=1)
    assert 3 in threads
    assert threading.active_count() == baseline


def test_many_threads_switching_often_move_no_bit(split, corpus):
    """More threads than cores, the interpreter switching every
    microsecond: every row's pool still lands in its own place."""
    split(1)
    want = BUILDS["nsw"](corpus)
    threads = split(12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = BUILDS["nsw"](corpus)
    finally:
        sys.setswitchinterval(interval)
    assert 12 in threads
    assert got.indices.tobytes() == want.indices.tobytes()

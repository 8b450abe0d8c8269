"""Set-up kernels over row ranges on threads, and the byte budget.

The blocked brute-force kNN (``exact_knn`` / ``exact_knn_matrix``) and
``build_cagra``'s detour prune cut their rows into ``row_blocks`` of the
byte budget ``BLOCK_BYTES``, and ``in_row_ranges`` runs contiguous ranges
of those blocks on ``cores()`` threads.  Every block is the serial loop's
block, so the output must be the one-CPU output bit for bit.  The tests
shrink the budget so that small corpora split into many blocks, and patch
``cores`` to 3 so that they split into uneven ranges on any host; the
reference side patches ``cores`` to 1.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.pool as pool
from repro.data import metrics
from repro.data.groundtruth import exact_knn
from repro.data.metrics import normalize
from repro.graphs import build_cagra
from repro.parallel import in_row_ranges, on_threads


@pytest.fixture
def split(monkeypatch):
    """Returns ``use(n_cores)``: from then on set-up kernels see
    ``n_cores`` cores and a budget of a few KiB; ``ranges`` lists the range
    count of every ``on_threads`` call since."""
    ranges: list[int] = []
    threads = pool.on_threads

    def counted(fn, items):
        ranges.append(len(items))
        return threads(fn, items)

    monkeypatch.setattr(pool, "on_threads", counted)
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 24 * 1024)

    def use(n_cores: int) -> list[int]:
        monkeypatch.setattr(pool, "cores", lambda: n_cores)
        ranges.clear()
        return ranges

    return use


@pytest.fixture(scope="module")
def corpus():
    return np.random.default_rng(7).normal(size=(301, 16)).astype(np.float32)


def test_row_ranges_are_contiguous_runs_of_whole_blocks(monkeypatch):
    monkeypatch.setattr(pool, "cores", lambda: 3)
    seen = []
    lock = threading.Lock()

    def record(lo, hi):
        with lock:
            seen.append((threading.current_thread().name, lo, hi))

    blocks = [(0, 2), (2, 4), (4, 6), (6, 8), (8, 11)]
    in_row_ranges(record, blocks)
    assert sorted((lo, hi) for _, lo, hi in seen) == blocks
    by_thread: dict[int, list] = {}
    for name, lo, hi in seen:  # names, unlike idents, are never reused
        by_thread.setdefault(name, []).append((lo, hi))
    runs = sorted(sorted(r) for r in by_thread.values())
    assert runs == [[(0, 2)], [(2, 4), (4, 6)], [(6, 8), (8, 11)]]
    assert threading.current_thread().name in by_thread  # range 0 on the caller


@pytest.mark.parametrize("metric", ["l2", "cosine"])
def test_build_cagra_on_every_core_equals_one_cpu(split, corpus, metric):
    """301 points (no block multiple) in 24-row prune blocks and 20-row
    kNN panels, over three uneven ranges: CSR bytes as pinned to one CPU,
    and as at the default budget."""
    pts = normalize(corpus) if metric == "cosine" else corpus
    default = build_cagra(pts, graph_degree=8, metric=metric)
    assert split(1) == []
    want = build_cagra(pts, graph_degree=8, metric=metric)
    ranges = split(3)
    got = build_cagra(pts, graph_degree=8, metric=metric)
    assert ranges == [3, 3]  # the kNN, then the detour prune
    for g in (want, default):
        assert got.indptr.tobytes() == g.indptr.tobytes()
        assert got.indices.tobytes() == g.indices.tobytes()


def test_exact_knn_on_every_core_equals_one_cpu(split, corpus):
    queries = corpus[:257] + 0.01
    split(1)
    want = exact_knn(queries, corpus, 10)
    ranges = split(3)
    got = exact_knn(queries, corpus, 10)
    assert ranges == [3]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_many_threads_switching_often_lose_no_row(split, corpus):
    """More ranges than cores, the interpreter switching threads every
    microsecond: every block's rows still land, in their own place."""
    split(1)
    want = exact_knn(corpus, corpus, 10)
    ranges = split(12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = exact_knn(corpus, corpus, 10)
    finally:
        sys.setswitchinterval(interval)
    assert ranges == [12]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_a_failure_in_a_worker_thread_surfaces_after_the_join():
    """Item 0 runs on the caller and waits until item 2's thread has
    failed; the failure of item 1 (first in item order) reaches the
    caller, and only once every thread is gone."""
    failed = threading.Event()
    baseline = threading.active_count()

    def fn(i):
        if i == 0:
            assert failed.wait(10)
            return "caller"
        if i == 2:
            failed.set()
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="item 1"):
        on_threads(fn, [0, 1, 2])
    assert threading.active_count() == baseline


def test_no_thread_outlives_a_build(split, corpus):
    baseline = threading.active_count()
    ranges = split(3)
    build_cagra(corpus, graph_degree=8)
    exact_knn(corpus[:100], corpus, 5)
    assert ranges and set(ranges) == {3}
    assert threading.active_count() == baseline


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([3, 24, 128, 960]),
    batch=st.integers(1, 9),
    width=st.integers(2, 40),
)
def test_matmul_gram_over_a_prefix_equals_the_full_width_slice(
    seed, dim, batch, width
):
    """What the ragged occlusion prune relies on: the batched matmul Gram
    of a chunk's first ``w >= 2`` columns is the full-width Gram's
    ``[:w, :w]`` slice bit for bit, for any number of rows in the chunk."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((batch, width, dim)).astype(np.float32)
    full = np.matmul(g, g.transpose(0, 2, 1))
    w = int(rng.integers(2, width + 1))
    lo = int(rng.integers(0, batch))
    sub = g[lo:, :w]
    part = np.matmul(sub, sub.transpose(0, 2, 1))
    assert part.tobytes() == np.ascontiguousarray(full[lo:, :w, :w]).tobytes()

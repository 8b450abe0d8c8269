"""Perf smoke gate for split lockstep searches (docs/performance.md,
"Multi-core execution").

Marker-gated (``-m perf_smoke``) like the other gates.  A search batch of
at least ``2 × MIN_ROWS_PER_THREAD`` rows runs as one engine per query
chunk, the chunks stepped concurrently on threads.  On a 10k-point CAGRA-16
graph (``sift1m-mini``) ``ALGASSystem.search_all`` over 1 024 queries × 8
CTAs (8 192 rows, ``online_small_batch``'s shape) is run with every core
this process may use and pinned to one CPU (``os.sched_setaffinity``, so
``repro.parallel.pool.cores()`` reads 1 and the batch is one engine),
alternately, best of 3 a side:

* the two runs must agree in ids, distances and ``TraceBlock``, bit for
  bit;
* the all-cores time may be at most ``MAX_WALL_RATIO`` of the pinned one.

Measured on a 2-core host, seven trials: 0.55-0.71x (one CPU 0.36-0.61 s,
two cores 0.24-0.34 s).  The
ceiling is the measured 0.71x plus a 0.14 margin for scheduler noise: it
trips when the chunks stop overlapping (one engine again, or a lock
serializing the threads), not on a noisy run.  A one-core host skips,
saying so: there is nothing to overlap.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import ALGASSystem
from repro.data import load_dataset
from repro.graphs import build_cagra
from repro.parallel import cores

pytestmark = pytest.mark.perf_smoke

#: 0.71x measured + 0.14 margin
MAX_WALL_RATIO = 0.85


def test_split_search_uses_every_core_and_moves_no_bit():
    n_cores = cores()
    if n_cores < 2:
        pytest.skip(f"one core available (cores() = {n_cores}): a split "
                    f"search has nothing to overlap")
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity: cannot pin the one-CPU side")
    ds = load_dataset("sift1m-mini", n=10_000, n_queries=1024, gt_k=10, seed=7)
    graph = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=10, l_total=128,
                         batch_size=16, seed=1)
    assert system.n_parallel == 8
    every = os.sched_getaffinity(0)
    one = {min(every)}

    def timed(cpus):
        os.sched_setaffinity(0, cpus)
        try:
            t0 = time.perf_counter()
            out = system.search_all(ds.queries)
            return time.perf_counter() - t0, out
        finally:
            os.sched_setaffinity(0, every)

    timed(every)  # warm: neighbour matrix, first allocations
    runs = {"one": [], "every": []}
    for _ in range(3):
        runs["one"].append(timed(one))
        runs["every"].append(timed(every))
    pinned, split = runs["one"][0][1], runs["every"][0][1]
    assert split[0].tobytes() == pinned[0].tobytes()
    assert split[1].tobytes() == pinned[1].tobytes()
    assert split[2] == pinned[2]
    t_one = min(t for t, _ in runs["one"])
    t_every = min(t for t, _ in runs["every"])
    ratio = t_every / t_one
    print(f"\nsearch_all 1024 x 8 CTAs: one CPU {t_one:.3f} s, "
          f"{n_cores} cores {t_every:.3f} s, ratio {ratio:.2f}")
    assert ratio <= MAX_WALL_RATIO, (
        f"split search {t_every:.3f} s is {ratio:.2f}x the one-CPU "
        f"{t_one:.3f} s, above the {MAX_WALL_RATIO}x ceiling"
    )

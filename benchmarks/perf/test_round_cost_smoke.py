"""Perf smoke gate for the host query bubble (docs/performance.md, "The host
query bubble").

Marker-gated (``-m perf_smoke``) like the other gates.  A lockstep run
lasts as many rounds as its slowest row, so a small batch pays the
engine's per-round floor on every round while amortizing it over few rows.
Two gates bound that:

* the per-row ratio: on one 10k-point CAGRA graph (``sift1m-mini``,
  degree 12) a 32-row ``DynamicGraph.search_batch`` (ef 64, k 10, traced —
  a stream epoch's shape) may cost at most ``MAX_PER_ROW_RATIO`` times as
  much host time per row as a 1 024-row one.  Each side is the best of 3.
  The timed path is the lockstep engine alone: it calls no BLAS routine,
  so the BLAS thread count (the benchmark pins it to 1) does not enter.
  Measured on a 2-core host, three runs a side: 2.8-3.3x with the beam
  extend (``BeamConfig.for_capacity`` of the list, about half the rounds
  on both sides), 3.1-3.4x with one expansion a cycle (14.3 ms for 32
  rows, 136 ms for 1 024); 3.4-4.3x when every round paid an O(R) floor
  of about 100 numpy calls (about 8x in an earlier configuration with a
  30-row run).  The ceiling is the measured 3.3x plus a 1.5x margin for
  scheduler noise: it trips when the per-round floor comes back, not on
  a noisy run.
* the round count: one ``serve_while_update`` call of the ``stream_churn``
  shape (10k x 128, CAGRA-12, ef 64, 1 024 uniform-order arrivals at
  3 000 q/s beside 3 000 + 3 000 q/s insert / delete waves, seed 1) may
  run at most ``MAX_STREAM_ROUNDS`` traced lockstep rounds.  Rounds are
  exact counts, so the gate has no noise margin: 1 254 with the tuned
  multi-CTA split (8 CTAs a read, 10 candidates each, half of them seeded
  from hashed entries; 1 390 when each CTA seeded two), 2 155 with
  single-CTA reads and the beam extend (``BeamConfig.for_capacity`` of
  the list), 4 630 with one expansion a cycle.

And two gates on the simulated clock.  The cost model is deterministic,
so both are exact figures with no margin:

* the stream call above: its simulated p50 service latency may be at most
  ``MAX_STREAM_P50_US`` (19.13 us with the tuned split when each CTA
  seeded two entries, 17.63 us with half-list seeds; 45.51 us with
  single-CTA reads);
* seeding: an ``online_small_batch``-shaped ``ALGASSystem.serve`` (sift
  10k x 128, CAGRA-16, 1 024 queries, 16 slots, ``l_total`` 128, k 10,
  seed 1) may read a simulated p50 of at most ``MAX_SEEDED_P50_US``:
  22.10 us when every CTA seeds half its candidate list
  (``seeds_per_cta``), 26.63 us with two entries a CTA.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import ALGASSystem
from repro.data import load_dataset
from repro.data.workload import QueryEvent
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.search.batched import LockstepEngine
from repro.streaming import UpdateStream, serve_while_update

pytestmark = pytest.mark.perf_smoke

#: 3.3x measured + 1.5x margin
MAX_PER_ROW_RATIO = 4.8
#: 1 254 measured at the tuned split with half-list seeds (1 390 with
#: two seeds a CTA); single-CTA reads ran 2 155, one expansion a cycle 4 630
MAX_STREAM_ROUNDS = 2_400
#: 17.63 us measured at the tuned split; single-CTA reads read 45.51 us
MAX_STREAM_P50_US = 25.0
#: 22.10 us measured with half-list seeds; two seeds a CTA read 26.63 us
MAX_SEEDED_P50_US = 24.0


def _best_of_3(fn) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_small_batch_pays_its_rows_not_the_round_floor():
    ds = load_dataset("sift1m-mini", n=10_000, n_queries=1024, gt_k=10, seed=7)
    graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric)
    dyn = DynamicGraph(ds.base, graph, metric=ds.metric, ef=64)
    small, wide = ds.queries[:32], ds.queries

    def search(queries):
        return lambda: dyn.search_batch(queries, 10, record_trace=True)

    search(small)()  # warm: imports, first allocations
    per_row_small = _best_of_3(search(small)) / small.shape[0]
    per_row_wide = _best_of_3(search(wide)) / wide.shape[0]
    ratio = per_row_small / per_row_wide
    print(f"\nper-row host time: 32 rows {per_row_small * 1e3:.3f} ms, "
          f"1024 rows {per_row_wide * 1e3:.3f} ms, ratio {ratio:.2f}x")
    assert ratio <= MAX_PER_ROW_RATIO, (
        f"a 32-row search costs {ratio:.2f}x the per-row host time of a "
        f"1024-row one (ceiling {MAX_PER_ROW_RATIO}x): the per-round floor "
        f"is back"
    )


def _benchmark_corpus(n_events: int, seed: int):
    """``benchmarks/e2e``'s corpus (sift 10k x 128, corpus seed 0, a 4x
    query pool) and its seeded draw of ``n_events`` queries."""
    ds = load_dataset("sift1m-mini", n=10_000, n_queries=4 * n_events,
                      gt_k=10, seed=0)
    pick = np.random.default_rng(seed).choice(
        ds.queries.shape[0], size=n_events, replace=False)
    return ds, ds.queries[pick]


@pytest.fixture(scope="module")
def stream_call():
    """The benchmark's seed-1 ``stream_churn`` call (a 4x query pool sampled
    without replacement, arrivals uniform over the horizon n / rate): its
    report and the traced lockstep rounds of each epoch run."""
    seed, n_events, rate = 1, 1024, 3000.0
    ds, queries = _benchmark_corpus(n_events, seed)
    times = np.sort(np.random.default_rng(seed).uniform(
        0.0, n_events / rate * 1e6, n_events))
    arrivals = [QueryEvent(i, float(t)) for i, t in enumerate(times)]
    graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=0)
    dyn = DynamicGraph(ds.base, graph, metric=ds.metric, ef=64)
    stream = UpdateStream(insert_qps=rate, delete_qps=rate,
                          wave_us=10_000.0, seed=seed)

    rounds = []
    run = LockstepEngine.run

    def counted(self, *args, **kwargs):
        run(self, *args, **kwargs)
        if self._trace is not None:
            rounds.append(int(self.rounds_by_active.sum()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LockstepEngine, "run", counted)
        rep = serve_while_update(dyn, queries, stream,
                                 workload=arrivals, n_queries=n_events,
                                 k=10, slots=8)
    return rep, rounds


def test_stream_call_runs_beam_extend_rounds(stream_call):
    rep, rounds = stream_call
    total = sum(rounds)
    print(f"\nstream call: {total} traced lockstep rounds over "
          f"{len(rounds)} epochs, {len(rep.waves)} waves")
    assert total <= MAX_STREAM_ROUNDS, (
        f"the stream call ran {total} traced lockstep rounds (ceiling "
        f"{MAX_STREAM_ROUNDS}): its searches no longer run the beam extend"
    )


def test_stream_reads_run_the_multi_cta_split(stream_call):
    rep, _ = stream_call
    p50 = rep.serve.percentile_latency_us(50, "service")
    print(f"\nstream call: simulated p50 {p50:.2f} us")
    assert p50 <= MAX_STREAM_P50_US, (
        f"the stream call's simulated p50 is {p50:.2f} us (ceiling "
        f"{MAX_STREAM_P50_US} us): its reads no longer run the tuned "
        f"multi-CTA split"
    )


def test_every_cta_seeds_half_its_list():
    ds, queries = _benchmark_corpus(1024, 1)
    graph = build_cagra(ds.base, graph_degree=16, metric=ds.metric, seed=0)
    system = ALGASSystem(ds.base, graph, metric=ds.metric, k=10, l_total=128,
                         batch_size=16, seed=1)
    p50 = system.serve(queries).serve.percentile_latency_us(50, "service")
    print(f"\nonline_small_batch shape: simulated p50 {p50:.2f} us")
    assert p50 <= MAX_SEEDED_P50_US, (
        f"the closed-loop serve's simulated p50 is {p50:.2f} us (ceiling "
        f"{MAX_SEEDED_P50_US} us): its CTAs no longer seed half their "
        f"candidate lists"
    )

"""Fit the host cost of a lockstep round: fixed + per active row + per pair.

Times every ``LockstepEngine.step_all`` of two configurations and fits
``seconds = fixed + per_row * active_rows + per_pair * pairs_scored`` by
least squares (docs/performance.md, "The host query bubble"):

* ``stream`` — the ``serve_while_update`` call ``benchmarks/e2e`` times on
  ``stream_churn`` at ``--seed`` (``sift1m-mini`` 10k x 128, CAGRA degree
  12, ef 64; 1 024 reads drawn without replacement from a 4x query pool,
  arrivals uniform over the horizon 1 024 / 3 000 q/s, beside 3 000 +
  3 000 q/s insert / delete waves); the call runs only the epoch searches
  (traced engines), and the frozen-graph oracle runs after it, when the
  report is graded, so the fit covers the epoch runs alone;
* ``static`` — ``ALGASSystem.search_all`` of ``online_small_batch``'s shape
  (CAGRA degree 16, 1 024 queries, 8 CTAs a query, l_total 128).

A round's active rows come from the engine's ``rounds_by_active`` counter.
The script pins itself to one CPU (``os.sched_setaffinity``), so
``repro.parallel.pool.cores()`` reads 1 and every search is one engine on
the calling thread: a split search would step engines concurrently and the
timings wrapped around ``step_all`` would overlap.

    PYTHONPATH=src python benchmarks/perf/round_cost.py [stream|static] [--seed N]
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.pipeline import ALGASSystem  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.data.workload import QueryEvent  # noqa: E402
from repro.graphs import build_cagra  # noqa: E402
from repro.graphs.dynamic import DynamicGraph  # noqa: E402
from repro.search.batched import LockstepEngine  # noqa: E402
from repro.streaming import UpdateStream, serve_while_update  # noqa: E402


def record_rounds(rounds: list, traced_only: bool):
    """Wrap ``step_all`` to append ``(active, pairs, seconds)`` per round."""
    step_all = LockstepEngine.step_all

    def timed(self):
        if traced_only and self._trace is None:
            return step_all(self)
        hist, pairs = self.rounds_by_active.copy(), self.pairs_scored
        t0 = time.perf_counter()
        stepped = step_all(self)
        dt = time.perf_counter() - t0
        if stepped:
            active = int(np.flatnonzero(self.rounds_by_active - hist)[0])
            rounds.append((active, self.pairs_scored - pairs, dt))
        return stepped

    LockstepEngine.step_all = timed


def fit(rounds: list) -> str:
    a, p, s = (np.array(c, dtype=np.float64) for c in zip(*rounds))
    x = np.stack([np.ones_like(a), a, p], axis=1)
    (fixed, per_row, per_pair), *_ = np.linalg.lstsq(x, s, rcond=None)
    tail = a < 40
    return "\n".join([
        f"rounds {a.size}, step_all total {s.sum():.3f} s",
        f"fit: fixed {fixed * 1e6:.1f} us/round, per active row "
        f"{per_row * 1e6:.2f} us, per scored pair {per_pair * 1e6:.3f} us",
        f"rounds with < 40 active rows: {int(tail.sum())} "
        f"({s[tail].sum():.3f} s)",
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", choices=("stream", "static"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if hasattr(os, "sched_setaffinity"):  # elsewhere cores() may split
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds: list = []
    if args.config == "stream":
        n_events, rate = 1024, 3000.0
        ds = load_dataset("sift1m-mini", n=10_000, n_queries=4 * n_events,
                          gt_k=10, seed=0)
        pick = np.random.default_rng(args.seed).choice(
            ds.queries.shape[0], size=n_events, replace=False)
        times = np.sort(np.random.default_rng(args.seed).uniform(
            0.0, n_events / rate * 1e6, n_events))
        graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=0)
        stream = UpdateStream(insert_qps=rate, delete_qps=rate,
                              wave_us=10_000.0, seed=args.seed)
        dyn = DynamicGraph(ds.base, graph, metric=ds.metric, ef=64)
        record_rounds(rounds, traced_only=True)
        serve_while_update(dyn, ds.queries[pick], stream,
                           workload=[QueryEvent(i, float(t))
                                     for i, t in enumerate(times)],
                           n_queries=n_events, k=10, slots=8)
    else:
        ds = load_dataset("sift1m-mini", n=10_000, n_queries=1024, gt_k=10,
                          seed=0)
        graph = build_cagra(ds.base, graph_degree=16, metric=ds.metric, seed=0)
        system = ALGASSystem(ds.base, graph, metric=ds.metric, k=10,
                             l_total=128, batch_size=16, seed=args.seed)
        system.search_all(ds.queries[:64])  # warm the neighbour matrix
        record_rounds(rounds, traced_only=False)
        system.search_all(ds.queries)
    print(fit(rounds))


if __name__ == "__main__":
    main()

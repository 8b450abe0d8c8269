#!/usr/bin/env python
"""Serve-while-update benchmark: degradation SLOs under streaming churn.

Builds a corpus, wraps it in a :class:`~repro.graphs.dynamic.DynamicGraph`,
and serves an open-loop Poisson query stream three times on the shared
simulated clock:

* **frozen**   — no updates at all (every run is graded against its own
  frozen-graph oracle, but this scenario also pins down the healthy
  latency profile);
* **steady**   — steady insert/delete waves at moderate rates;
* **storm**    — the ``update-storm`` chaos plan on top of the steady
  rates: a 5k-insert + 1k-delete burst mid-serve with the compaction
  barrier stretched 6x (``compaction_stall``).

Per scenario it records the SLO verdict table (answered fraction, recall
drop vs the frozen-graph oracle, tombstone/duplicate integrity, lost
queries) plus the merged serve summary — whose latency percentiles are
**query-only** by construction: update-wave and compaction time is
accounted separately under ``meta["update"]`` (the
:func:`~repro.core.serving.merge_reports` rule), so a storm shows up
as e2e queueing delay behind the wave barrier, never as inflated service
percentiles.  Each scenario also records its host seconds in two parts:
``serve_s`` (the ``serve_while_update`` call) and ``grade_s``
(:func:`~repro.streaming.grade_stream`: the frozen-graph oracle search and
the per-epoch exact ground truth, run after the call), and ``rounds``: the
traced lockstep rounds the call's epoch searches ran, the per-round floor's
multiplier (docs/performance.md, "The host query bubble").

Acceptance gate (mirrors ``scripts/test.sh --chaos``): the storm scenario
must answer >= 99% of the traffic, keep recall@16 within 0.02 of the
frozen-graph oracle, and return zero tombstoned or duplicated answers.

Results land in ``BENCH_stream.json`` (the ``repro stream`` CLI emits the
same report shape).

Usage:
    PYTHONPATH=src python benchmarks/perf/bench_stream.py [out.json]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.serving import _json_safe
from repro.data import load_dataset
from repro.data.workload import Poisson, TrafficSpec
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.resilience import named_plan
from repro.search.batched import LockstepEngine
from repro.streaming import (
    DegradationSLO,
    UpdateStream,
    grade_stream,
    serve_while_update,
)

DATASET = "sift1m-mini"
N_BASE = 6000
N_TEMPLATES = 96
N_EVENTS = 256
RATE_QPS = 3000.0
K = 16
SEED = 0

SLO = DegradationSLO(min_answered_frac=0.99, max_recall_drop=0.02)

SCENARIOS = {
    # label -> (UpdateStream, fault plan or None)
    "frozen": (UpdateStream(insert_qps=0.0, delete_qps=0.0, seed=11), None),
    "steady": (
        UpdateStream(insert_qps=3000.0, delete_qps=1000.0,
                     wave_us=10_000.0, seed=11),
        None,
    ),
    "storm": (
        UpdateStream(insert_qps=3000.0, delete_qps=1000.0,
                     wave_us=10_000.0, seed=11),
        named_plan("update-storm"),
    ),
}


def _fresh_graph(ds) -> DynamicGraph:
    return DynamicGraph(
        ds.base,
        build_cagra(ds.base, graph_degree=12, metric=ds.metric, seed=SEED),
        metric=ds.metric,
        ef=64,
    )


def count_traced_rounds(rounds: list) -> None:
    """Wrap ``LockstepEngine.run`` to append each traced engine's rounds."""
    run = LockstepEngine.run

    def counted(self, *args, **kwargs):
        run(self, *args, **kwargs)
        if self._trace is not None:
            rounds.append(int(self.rounds_by_active.sum()))

    LockstepEngine.run = counted


def main(out_path: str) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(DATASET, n=N_BASE, n_queries=N_TEMPLATES,
                      gt_k=max(32, K), seed=SEED)
    workload = TrafficSpec(Poisson(rate_qps=RATE_QPS, seed=SEED),
                           n_queries=N_EVENTS)
    results: dict[str, dict] = {}
    rounds: list[int] = []
    count_traced_rounds(rounds)
    for label, (stream, plan) in SCENARIOS.items():
        dyn = _fresh_graph(ds)  # every scenario churns its own copy
        rounds.clear()
        t_serve = time.perf_counter()
        rep = serve_while_update(
            dyn, ds.queries, stream,
            workload=workload, n_queries=N_EVENTS, k=K,
            faults=plan, slo=SLO,
        )
        t_grade = time.perf_counter()
        n_rounds = sum(rounds)
        grade_stream(rep)
        t_end = time.perf_counter()
        doc = rep.to_dict()
        doc["serve_s"] = round(t_grade - t_serve, 3)
        doc["grade_s"] = round(t_end - t_grade, 3)
        doc["rounds"] = n_rounds
        # Keep the document compact: headline summary + accounting meta,
        # not the per-query record dump.
        doc["serve"] = {
            "summary": rep.serve.summary(),
            "meta": rep.serve.meta,
        }
        results[label] = doc
        print(f"[{label}]  serve {doc['serve_s']:.3f} s  "
              f"grade {doc['grade_s']:.3f} s  rounds {n_rounds}")
        print(rep.summary())
        print()

    gate = results["storm"]["passed"]
    doc = {
        "benchmark": "serve-while-update stream",
        "corpus": {"dataset": DATASET, "n": N_BASE, "metric": ds.metric,
                   "dim": int(ds.base.shape[1])},
        "workload": workload.to_dict(),
        "n_events": N_EVENTS,
        "k": K,
        "slo": {"min_answered_frac": SLO.min_answered_frac,
                "max_recall_drop": SLO.max_recall_drop},
        "scenarios": results,
        "gate": {"scenario": "storm", "passed": gate},
        "wall_seconds": round(time.perf_counter() - t0, 2),
    }
    Path(out_path).write_text(
        json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out_path}")
    print(f"gate (storm scenario) = {'PASS' if gate else 'FAIL'}")
    return 0 if gate else 1


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH_stream.json"
    raise SystemExit(main(out))

#!/usr/bin/env python
"""Quantized traversal benchmark: float32 vs int8 distance substrates.

For each mini corpus this runs the vectorized multi-CTA search twice —
identical graph, entries and candidate budgets, only the distance substrate
differing — and reports, per precision:

* **simulated-GPU per-query latency** (the cost model pricing each run's
  own traces: float32 FMAs vs DP4A int8 MACs, plus the int8 path's exact
  re-rank step).  This is the serve stack's
  latency axis and the headline metric: the dim=960 corpus must show
  int8 >= 1.5x over float32 with recall@16 within 0.02.
* **host wall-clock** of the numpy engine.  This is a first-class gate,
  not a footnote: the fused codec kernel (``precision.Int8Kernel``) must
  make int8 *win* on the dim=960 headline
  (``wall_speedup_vs_float32`` >= 1.0) — smaller codes are only worth
  shipping if the host engine actually banks the bandwidth.
* **recall@16** against exact ground truth, plus codec fit time and
  bytes/vector.

Scalar-vs-vectorized parity is asserted for every precision on a query
subset.  Results land in ``BENCH_quantized.json`` together with the
recall-vs-latency frontier (figures.precision_frontier_data inputs).

Usage:
    PYTHONPATH=src:. python benchmarks/perf/bench_quantized.py [out.json]
                                                                [--profile]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.profiling import profile_call
from repro.data import load_dataset
from repro.data.groundtruth import recall
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import build_cagra
from repro.search import make_codec
from repro.search.batched import batched_multi_cta_search
from tests.oracles import make_entries
from tests.reference import multi_cta_search

#: (dataset, n_base) — same sizes as bench_search.py.
CORPORA = [
    ("sift1m-mini", 20_000),
    ("gist1m-mini", 6_000),
    ("glove200-mini", 12_000),
    ("nytimes-mini", 12_000),
]
N_QUERIES = 64
K = 16
L_TOTAL = 128
N_CTAS = 8
GRAPH_DEGREE = 16
RERANK_MULT = 2
REPEATS = 3  # wall clock gates on best-of, so a few repeats damp scheduler noise
PRECISIONS = ("float32", "int8")
N_PARITY = 8  # queries checked against the scalar oracle per precision

#: acceptance gates (dim=960 headline corpus)
HEADLINE = "gist1m-mini"
MIN_INT8_SIM_SPEEDUP = 1.5
MIN_INT8_WALL_SPEEDUP = 1.0
MAX_RECALL_DELTA = 0.02


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_dataset(name: str, n_base: int) -> dict:
    ds = load_dataset(name, n=n_base, n_queries=N_QUERIES, gt_k=K, seed=7)
    graph = build_cagra(ds.base, graph_degree=GRAPH_DEGREE, metric=ds.metric)
    queries = ds.queries
    gt = ds.gt_at(K)
    cm = CostModel(RTX_A6000)
    entries = [
        make_entries(ds.n, N_CTAS, 2, np.random.default_rng(1000 + i))
        for i in range(len(queries))
    ]

    by_precision = {}
    for prec in PRECISIONS:
        t_fit = 0.0
        codec = None
        if prec != "float32":
            t0 = time.perf_counter()
            codec = make_codec(prec, ds.base, metric=ds.metric)
            t_fit = time.perf_counter() - t0

        def run(record_trace=False, codec=codec):
            return batched_multi_cta_search(
                ds.base, graph, queries, K, L_TOTAL, N_CTAS,
                metric=ds.metric, entries=entries,
                record_trace=record_trace, codec=codec,
                rerank_mult=RERANK_MULT,
            )

        run(False)  # warm caches (graph neighbor matrix, codec state path)
        t_wall, _ = _best_of(lambda: run(False))
        traced = run(True)
        sim_us = float(np.mean([cm.query_gpu_time_us(r.trace) for r in traced]))
        rec = recall(np.stack([r.ids for r in traced]), gt)

        # scalar-vs-vectorized parity on a query subset (full trace equality
        # is covered by tests/test_precision.py at unit scale)
        for i in range(N_PARITY):
            sc = multi_cta_search(
                ds.base, graph, queries[i], K, L_TOTAL, N_CTAS,
                metric=ds.metric, entries=entries[i],
                codec=codec, rerank_mult=RERANK_MULT,
            )
            assert np.array_equal(sc.ids, traced[i].ids), (name, prec, i)
            assert (
                np.asarray(sc.dists).tobytes()
                == np.asarray(traced[i].dists).tobytes()
            ), (name, prec, i)

        by_precision[prec] = {
            "wall_s": round(t_wall, 4),
            "sim_latency_us": round(sim_us, 3),
            "recall_at_16": round(float(rec), 4),
            "codec_fit_s": round(t_fit, 4),
            "bytes_per_vector": (
                4 * ds.dim if codec is None else codec.info().bytes_per_vector
            ),
        }

    f32, row = by_precision["float32"], by_precision["int8"]
    row["sim_speedup_vs_float32"] = round(
        f32["sim_latency_us"] / row["sim_latency_us"], 3
    )
    row["wall_speedup_vs_float32"] = round(f32["wall_s"] / row["wall_s"], 3)
    row["recall_delta_vs_float32"] = round(
        row["recall_at_16"] - f32["recall_at_16"], 4
    )
    return {
        "dataset": name,
        "n_base": ds.n,
        "dim": ds.dim,
        "metric": ds.metric,
        "n_queries": len(queries),
        "graph_degree": GRAPH_DEGREE,
        "k": K,
        "l_total": L_TOTAL,
        "n_ctas": N_CTAS,
        "rerank_mult": RERANK_MULT,
        "precisions": by_precision,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=(
        Path(__file__).resolve().parents[2] / "BENCH_quantized.json"
    ))
    ap.add_argument("--profile", action="store_true",
                    help="cProfile the headline corpus and print the "
                         "top-20 cumulative hotspots")
    args = ap.parse_args(argv[1:])
    out_path = args.out
    rows = []
    for name, n_base in CORPORA:
        if args.profile and name == HEADLINE:
            row, prof_report = profile_call(bench_dataset, name, n_base)
            print(f"\n--- cProfile ({name}, all precisions) ---")
            print(prof_report)
        else:
            row = bench_dataset(name, n_base)
        rows.append(row)
        p = row["precisions"]
        print(
            f"{name:>14s} (d={row['dim']:>4d})  "
            f"int8 sim {p['int8']['sim_speedup_vs_float32']:5.2f}x "
            f"wall {p['int8']['wall_speedup_vs_float32']:5.2f}x "
            f"dR {p['int8']['recall_delta_vs_float32']:+.4f}"
        )

    headline = next(r for r in rows if r["dataset"] == HEADLINE)
    h_int8 = headline["precisions"]["int8"]
    report = {
        "benchmark": "quantized traversal: float32 vs int8 "
                     "(vectorized multi-CTA, exact re-rank)",
        "config": {
            "n_queries": N_QUERIES, "k": K, "l_total": L_TOTAL,
            "n_ctas": N_CTAS, "graph_degree": GRAPH_DEGREE,
            "rerank_mult": RERANK_MULT, "repeats": REPEATS,
            "latency_metric": "cost-model simulated GPU us/query "
                              "(wall clock reported alongside)",
            "gates": {
                "headline": HEADLINE,
                "min_int8_sim_speedup": MIN_INT8_SIM_SPEEDUP,
                "min_int8_wall_speedup": MIN_INT8_WALL_SPEEDUP,
                "max_recall_delta": MAX_RECALL_DELTA,
            },
        },
        "results": rows,
        "headline": {
            "dataset": HEADLINE,
            "dim": headline["dim"],
            "int8_sim_speedup": h_int8["sim_speedup_vs_float32"],
            "wall_speedup_vs_float32": h_int8["wall_speedup_vs_float32"],
            "int8_recall_delta": h_int8["recall_delta_vs_float32"],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    ok = True
    if h_int8["sim_speedup_vs_float32"] < MIN_INT8_SIM_SPEEDUP:
        print(
            f"FAIL: {HEADLINE} int8 simulated speedup "
            f"{h_int8['sim_speedup_vs_float32']}x < {MIN_INT8_SIM_SPEEDUP}x"
        )
        ok = False
    if h_int8["wall_speedup_vs_float32"] < MIN_INT8_WALL_SPEEDUP:
        print(
            f"FAIL: {HEADLINE} int8 wall-clock speedup "
            f"{h_int8['wall_speedup_vs_float32']}x < {MIN_INT8_WALL_SPEEDUP}x"
        )
        ok = False
    if abs(h_int8["recall_delta_vs_float32"]) > MAX_RECALL_DELTA:
        print(
            f"FAIL: {HEADLINE} int8 recall delta "
            f"{h_int8['recall_delta_vs_float32']} outside +/-{MAX_RECALL_DELTA}"
        )
        ok = False
    for r in rows:
        if r["precisions"]["int8"]["wall_speedup_vs_float32"] < 0.9:
            print(f"WARNING: {r['dataset']} int8 wall clock loses >10% "
                  f"to float32")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

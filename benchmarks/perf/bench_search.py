#!/usr/bin/env python
"""Micro-harness: scalar oracle vs the lockstep search.

Times the raw search stage (no scheduling) on the four mini corpora: the
scalar reference searchers query by query against
``batched_multi_cta_search``, the one lockstep search, at one CTA and at
``N_CTAS``.  It verifies the results agree bit-for-bit while it is at it,
and writes the numbers to ``BENCH_search.json`` at the repo root.  The
headline configuration is batch-64 SIFT-mini at n=20000 / L=128 — the
acceptance gate is a >= 5x vectorized speedup there.

Usage:
    PYTHONPATH=src:. python benchmarks/perf/bench_search.py [out.json]
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
from repro.graphs import build_cagra
from repro.search import batched_multi_cta_search
from tests.oracles import make_entries
from tests.reference import intra_cta_search, multi_cta_search

#: (dataset, n_base) — GIST runs smaller because 960-d ground truth and
#: scalar per-pair distances dominate otherwise.
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
REPEATS = 3  # best-of: the scalar/vectorized ratio gates, so damp scheduler noise


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _assert_equal(scalar_results, batch_results) -> None:
    for a, b in zip(scalar_results, batch_results):
        assert np.array_equal(a.ids, b.ids), "lockstep results diverge"
        assert np.asarray(a.dists).tobytes() == np.asarray(b.dists).tobytes()


def bench_dataset(name: str, n_base: int) -> dict:
    ds = load_dataset(name, n=n_base, n_queries=N_QUERIES, gt_k=K, seed=7)
    graph = build_cagra(ds.base, graph_degree=GRAPH_DEGREE, metric=ds.metric)
    queries = ds.queries
    rng_entries = [
        make_entries(ds.n, N_CTAS, 2, np.random.default_rng(1000 + i))
        for i in range(len(queries))
    ]
    intra_entries = [e[:1] for e in rng_entries]

    # --- single-CTA: B queries, one CTA each, full-length candidate list
    t_s1, res_s1 = _best_of(lambda: [
        intra_cta_search(ds.base, graph, q, K, L_TOTAL, intra_entries[i][0],
                         metric=ds.metric)
        for i, q in enumerate(queries)
    ])
    t_v1, res_v1 = _best_of(lambda: batched_multi_cta_search(
        ds.base, graph, queries, K, L_TOTAL, 1,
        metric=ds.metric, entries=intra_entries,
    ))
    _assert_equal(res_s1, res_v1)

    # --- multi-CTA: B queries x N_CTAS CTAs sharing a visited bitmap
    t_sm, res_sm = _best_of(lambda: [
        multi_cta_search(ds.base, graph, q, K, L_TOTAL, N_CTAS,
                         metric=ds.metric, entries=rng_entries[i])
        for i, q in enumerate(queries)
    ])
    t_vm, res_vm = _best_of(lambda: batched_multi_cta_search(
        ds.base, graph, queries, K, L_TOTAL, N_CTAS,
        metric=ds.metric, entries=rng_entries
    ))
    _assert_equal(res_sm, res_vm)

    return {
        "dataset": name,
        "n_base": ds.n,
        "dim": ds.dim,
        "metric": ds.metric,
        "n_queries": len(queries),
        "graph_degree": GRAPH_DEGREE,
        "k": K,
        "l_total": L_TOTAL,
        "single_cta": {
            "scalar_s": round(t_s1, 4),
            "vectorized_s": round(t_v1, 4),
            "speedup": round(t_s1 / t_v1, 2),
        },
        "multi_cta": {
            "n_ctas": N_CTAS,
            "scalar_s": round(t_sm, 4),
            "vectorized_s": round(t_vm, 4),
            "speedup": round(t_sm / t_vm, 2),
        },
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=(
        Path(__file__).resolve().parents[2] / "BENCH_search.json"
    ))
    ap.add_argument("--profile", action="store_true",
                    help="cProfile the headline corpus and print the "
                         "top-20 cumulative hotspots")
    args = ap.parse_args(argv[1:])
    out_path = args.out
    rows = []
    for i, (name, n_base) in enumerate(CORPORA):
        if args.profile and i == 0:
            row, prof_report = profile_call(bench_dataset, name, n_base)
            print(f"\n--- cProfile ({name}, scalar and lockstep) ---")
            print(prof_report)
        else:
            row = bench_dataset(name, n_base)
        rows.append(row)
        print(
            f"{name:>14s}  single-CTA {row['single_cta']['speedup']:5.2f}x   "
            f"multi-CTA {row['multi_cta']['speedup']:5.2f}x"
        )
    headline = rows[0]
    report = {
        "benchmark": "search backend: scalar oracle vs vectorized lockstep",
        "config": {
            "n_queries": N_QUERIES, "k": K, "l_total": L_TOTAL,
            "n_ctas": N_CTAS, "graph_degree": GRAPH_DEGREE,
            "repeats": REPEATS, "timing": "best-of-repeats wall clock",
        },
        "results": rows,
        "headline": {
            "dataset": headline["dataset"],
            "wall_speedup_single_cta": headline["single_cta"]["speedup"],
            "wall_speedup_multi_cta": headline["multi_cta"]["speedup"],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    if headline["single_cta"]["speedup"] < 5.0:
        print("WARNING: batch-64 SIFT-mini single-CTA speedup below 5x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

#!/usr/bin/env python
"""Multi-core scaling curve of the process-parallel sharded serve.

A 4-shard :class:`~repro.core.cluster.ShardedServer` over GIST-mini,
swept over worker counts 1/2/4/8 with process pools (docs/performance.md,
"Multi-core execution"): the shard legs (search + dynamic-batch
scheduling) fan out over workers reading the corpus and graphs from
shared memory.  The graph build is done once up front; the timed region
is ``serve()`` alone, including pool startup (that is the real
per-request cost a caller pays).

Every row carries a ``parity`` bit: the parallel run's report must be
byte-identical to the sequential one — ``parallelism`` is an execution
knob, never a results knob.  ``host_cpus`` is recorded because speedups
are only meaningful relative to the cores actually present: on a
single-core container every multi-worker row honestly shows <= 1x (pure
pool overhead), and the perf-smoke speedup gate skips itself.

Usage:
    PYTHONPATH=src python benchmarks/perf/bench_parallel.py [out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core import ServeConfig, ShardedServer
from repro.data import load_dataset
from repro.graphs import build_cagra

WORKERS = (1, 2, 4, 8)

SERVE_DATASET = "gist1m-mini"
SERVE_N = 8_000
SERVE_QUERIES = 64
SERVE_SHARDS = 4


def _builder(pts):
    return build_cagra(pts, graph_degree=16)


def bench_serve() -> list[dict]:
    ds = load_dataset(SERVE_DATASET, n=SERVE_N, n_queries=SERVE_QUERIES,
                      gt_k=10, seed=7)
    server = ShardedServer(
        ds.base, _builder, n_gpus=SERVE_SHARDS, metric=ds.metric,
        k=10, l_total=64, batch_size=8, max_parallel=4,
    )
    rows = []
    baseline_json = None
    baseline_s = None
    try:
        for w in WORKERS:
            cfg = ServeConfig(parallelism=0 if w == 1 else w)
            t0 = time.perf_counter()
            rep = server.serve(ds.queries, cfg)
            dt = time.perf_counter() - t0
            js = rep.serve.to_json()
            if baseline_json is None:
                baseline_json, baseline_s = js, dt
            rows.append({
                "workers": w,
                "wall_s": round(dt, 4),
                "speedup": round(baseline_s / dt, 2),
                "parity": js == baseline_json,
                "throughput_qps": round(rep.throughput_qps, 1),
            })
            print(f"serve  w={w}: {dt:6.2f}s  {rows[-1]['speedup']:5.2f}x  "
                  f"parity={rows[-1]['parity']}")
    finally:
        server.close()
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=(
        Path(__file__).resolve().parents[2] / "BENCH_parallel.json"
    ))
    args = ap.parse_args(argv[1:])

    doc = {
        "host_cpus": os.cpu_count(),
        "note": (
            "speedup is wall-clock vs the 1-worker (sequential) run on "
            "this host; on hosts with fewer cores than workers the extra "
            "workers are pure overhead and speedup <= 1x is expected. "
            "parity must be true on every row regardless of cores."
        ),
        "serve": {
            "dataset": SERVE_DATASET, "n_base": SERVE_N,
            "n_queries": SERVE_QUERIES, "n_shards": SERVE_SHARDS,
            "rows": bench_serve(),
        },
    }
    parity_ok = all(r["parity"] for r in doc["serve"]["rows"])
    doc["parity_ok"] = parity_ok
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} (parity_ok={parity_ok})")
    return 0 if parity_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

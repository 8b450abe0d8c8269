#!/usr/bin/env python
"""Hybrid CPU–GPU tier benchmark: pilot traversal + staged CPU refinement.

The scenario the hybrid tier exists for: the corpus footprint is a
multiple of device capacity (here cap = footprint/3, i.e. 3x
oversubscribed).  Three systems answer the same queries:

* **um-spill** — the full graph stays "on device" behind unified memory;
  ``plan_memory`` derates bandwidth/latency for the spill fraction and
  the stock ALGAS stack serves on the derated device.  This is what the
  GPU path actually costs when the corpus does not fit.
* **hybrid** — ``HybridSystem``: stage 1 traverses a memory-fit pilot
  subgraph (sampled vertices, SVD-reduced dims) at full device speed,
  stage 2 ships candidate ids over PCIe, stage 3 refines on host
  full-precision vectors with a bounded graph walk.
* **cpu-greedy** — host-only Algorithm 1 over the full graph; the wall
  clock floor the hybrid must beat to justify involving the GPU at all.

Headline gates (enforced, exit 1 on failure):

* hybrid simulated latency >= MIN_SIM_SPEEDUP x faster than um-spill,
* hybrid recall@10 within MAX_RECALL_DELTA of um-spill,
* hybrid result-producing wall clock (``hybrid_search_all``) beats the
  cpu-greedy loop,
* the pilot actually fits the constrained capacity.

Wall clock is compared on the result-producing work (pilot engine +
host refinement vs the greedy loop): the serve() wrapper adds identical
pricing/scheduling bookkeeping to every system, so including it would
measure the simulator, not the algorithms.

Usage:
    PYTHONPATH=src:. python benchmarks/perf/bench_hybrid.py [out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import ALGASSystem, HybridSystem
from repro.data import load_dataset
from repro.data.groundtruth import recall
from repro.gpusim.device import RTX_A6000
from repro.gpusim.memory import footprint_bytes, plan_memory
from repro.graphs import build_nsw
from tests.reference.greedy import greedy_search

DATASET = "gist1m-mini"  # dim=960: distance bytes dominate, the UM cliff bites
N_BASE = 4_000
N_QUERIES = 128
M = 16
K = 10
L_TOTAL = 64
N_SLOTS = 8
HOST_THREADS = 16
OVERSUB = 3  # capacity = footprint / OVERSUB

#: hybrid operating point
PILOT_DIM = 64
N_CANDIDATES = 16
REFINE_STEPS = 1
PILOT_L_TOTAL = 24

#: acceptance gates
MIN_SIM_SPEEDUP = 3.0
MAX_RECALL_DELTA = 0.02
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=(
        Path(__file__).resolve().parents[2] / "BENCH_hybrid.json"
    ))
    args = ap.parse_args(argv[1:])

    ds = load_dataset(DATASET, n=N_BASE, n_queries=N_QUERIES, gt_k=K, seed=7)
    graph = build_nsw(ds.base, m=M, metric=ds.metric, seed=0)
    gt = ds.gt_at(K)
    cap = footprint_bytes(
        ds.n, ds.dim, graph.n_edges, N_SLOTS, N_SLOTS, K
    ) // OVERSUB

    common = dict(
        metric=ds.metric, k=K, l_total=L_TOTAL,
        batch_size=N_SLOTS, host_threads=HOST_THREADS, seed=0,
    )

    # --- um-spill baseline: stock stack on the UM-derated device --------
    plan = plan_memory(
        RTX_A6000, ds.n, ds.dim, graph.n_edges,
        n_slots=N_SLOTS, n_parallel=N_SLOTS, k=K, capacity_bytes=cap,
    )
    assert not plan.fits, "baseline must be oversubscribed"
    derated = RTX_A6000.with_overrides(
        global_mem_bw_gbps=plan.effective_bw_gbps,
        global_mem_latency_cycles=plan.effective_latency_cycles,
    )
    spill = ALGASSystem(ds.base, graph, derated, **common)
    spill_report = spill.serve(ds.queries)
    spill_recall = float(recall(spill_report.ids, gt))
    spill_lat = float(spill_report.serve.mean_latency_us())

    # --- hybrid tier ----------------------------------------------------
    hyb = HybridSystem(
        ds.base, graph, RTX_A6000,
        capacity_bytes=cap, pilot_dim=PILOT_DIM,
        n_candidates=N_CANDIDATES, refine_steps=REFINE_STEPS,
        pilot_l_total=PILOT_L_TOTAL, **common,
    )
    assert hyb.pilot.plan.fits, "pilot must fit the constrained capacity"
    hyb_report = hyb.serve(ds.queries)
    hyb_recall = float(recall(hyb_report.ids, gt))
    hyb_lat = float(hyb_report.serve.mean_latency_us())

    # result-producing wall clock: pilot engine + host refinement
    hyb.hybrid_search_all(ds.queries)  # warm caches
    wall_hybrid, _ = _best_of(lambda: hyb.hybrid_search_all(ds.queries))

    # --- cpu-greedy floor -----------------------------------------------
    entry = np.array([hyb._medoid])

    def run_greedy():
        out = np.empty((len(ds.queries), K), dtype=np.int64)
        for i, q in enumerate(ds.queries):
            ids, _, _ = greedy_search(
                ds.base, graph, q, K, L_TOTAL, entry, ds.metric
            )
            out[i] = ids
        return out

    run_greedy()  # warm caches
    wall_greedy, greedy_ids = _best_of(run_greedy)
    greedy_recall = float(recall(greedy_ids, gt))

    sim_speedup = spill_lat / hyb_lat
    wall_speedup = wall_greedy / wall_hybrid
    tier_meta = hyb_report.serve.meta["tier"]

    print(f"corpus {DATASET} n={ds.n} dim={ds.dim}  "
          f"footprint/capacity = {plan.oversubscription:.2f}x")
    print(f"um-spill : recall {spill_recall:.4f}  sim {spill_lat:8.1f} us  "
          f"(bw {plan.effective_bw_gbps:.1f} GB/s)")
    print(f"hybrid   : recall {hyb_recall:.4f}  sim {hyb_lat:8.1f} us  "
          f"sim speedup {sim_speedup:.2f}x  wall {wall_hybrid:.3f}s")
    print(f"cpu-greedy: recall {greedy_recall:.4f}  wall {wall_greedy:.3f}s  "
          f"hybrid wall speedup {wall_speedup:.2f}x")

    report = {
        "benchmark": "memory-bounded hybrid tier: pilot subgraph + "
                     "PCIe candidate shipment + bounded CPU refinement",
        "config": {
            "dataset": DATASET, "n_base": ds.n, "dim": ds.dim,
            "metric": ds.metric, "n_queries": N_QUERIES,
            "m": M, "k": K, "l_total": L_TOTAL, "n_slots": N_SLOTS,
            "host_threads": HOST_THREADS,
            "oversubscription_target": OVERSUB,
            "capacity_bytes": int(cap),
            "pilot_dim": PILOT_DIM, "n_candidates": N_CANDIDATES,
            "refine_steps": REFINE_STEPS, "pilot_l_total": PILOT_L_TOTAL,
            "repeats": REPEATS,
            "gates": {
                "min_sim_speedup_vs_um_spill": MIN_SIM_SPEEDUP,
                "max_recall_delta_vs_um_spill": MAX_RECALL_DELTA,
                "wall_must_beat_cpu_greedy": True,
                "pilot_must_fit": True,
            },
        },
        "results": {
            "um_spill": {
                "recall_at_10": round(spill_recall, 4),
                "sim_latency_us": round(spill_lat, 2),
                "effective_bw_gbps": round(plan.effective_bw_gbps, 2),
                "effective_latency_cycles": round(
                    plan.effective_latency_cycles, 1
                ),
                "oversubscription": round(plan.oversubscription, 3),
            },
            "hybrid": {
                "recall_at_10": round(hyb_recall, 4),
                "sim_latency_us": round(hyb_lat, 2),
                "wall_search_s": round(wall_hybrid, 4),
                "pilot": tier_meta["pilot"],
                "refine": tier_meta["refine"],
            },
            "cpu_greedy": {
                "recall_at_10": round(greedy_recall, 4),
                "wall_search_s": round(wall_greedy, 4),
            },
        },
        "headline": {
            "sim_speedup_vs_um_spill": round(sim_speedup, 3),
            "recall_delta_vs_um_spill": round(hyb_recall - spill_recall, 4),
            "wall_speedup_vs_cpu_greedy": round(wall_speedup, 3),
            "pilot_fits": bool(hyb.pilot.plan.fits),
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    ok = True
    if sim_speedup < MIN_SIM_SPEEDUP:
        print(f"FAIL: simulated speedup {sim_speedup:.2f}x < "
              f"{MIN_SIM_SPEEDUP}x vs um-spill")
        ok = False
    if hyb_recall < spill_recall - MAX_RECALL_DELTA:
        print(f"FAIL: hybrid recall {hyb_recall:.4f} more than "
              f"{MAX_RECALL_DELTA} below um-spill {spill_recall:.4f}")
        ok = False
    if wall_hybrid >= wall_greedy:
        print(f"FAIL: hybrid wall {wall_hybrid:.3f}s does not beat "
              f"cpu-greedy {wall_greedy:.3f}s")
        ok = False
    if not hyb.pilot.plan.fits:
        print("FAIL: pilot does not fit the constrained capacity")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

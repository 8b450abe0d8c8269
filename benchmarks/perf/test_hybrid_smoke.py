"""Perf smoke gate for the memory-bounded hybrid tier (docs/performance.md).

Marker-gated (``-m perf_smoke``) like the other perf gates, and a scaled
down version of ``bench_hybrid.py``: at a corpus footprint 3x device
capacity, the hybrid tier (pilot subgraph + PCIe candidate shipment +
bounded CPU refinement) must be >= 3x faster than the UM-spill baseline
on the simulated latency axis at recall@10 within 0.02, and its
result-producing wall clock must beat a host-only greedy loop over the
full graph.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ALGASSystem, HybridSystem
from repro.data import load_dataset
from repro.data.groundtruth import recall
from repro.gpusim.device import RTX_A6000
from repro.gpusim.memory import footprint_bytes, plan_memory
from repro.graphs import build_nsw
from tests.reference.greedy import greedy_search

pytestmark = pytest.mark.perf_smoke

MIN_SIM_SPEEDUP = 3.0
MAX_RECALL_DELTA = 0.02
K = 10
L_TOTAL = 64
N_SLOTS = 8


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.perf_smoke
def test_hybrid_beats_um_spill_at_3x_oversubscription():
    ds = load_dataset("gist1m-mini", n=3000, n_queries=64, gt_k=K, seed=7)
    graph = build_nsw(ds.base, m=16, metric=ds.metric, seed=0)
    gt = ds.gt_at(K)
    cap = footprint_bytes(ds.n, ds.dim, graph.n_edges, N_SLOTS, N_SLOTS, K) // 3
    common = dict(metric=ds.metric, k=K, l_total=L_TOTAL,
                  batch_size=N_SLOTS, host_threads=16, seed=0)

    plan = plan_memory(RTX_A6000, ds.n, ds.dim, graph.n_edges,
                       n_slots=N_SLOTS, n_parallel=N_SLOTS, k=K,
                       capacity_bytes=cap)
    assert not plan.fits
    derated = RTX_A6000.with_overrides(
        global_mem_bw_gbps=plan.effective_bw_gbps,
        global_mem_latency_cycles=plan.effective_latency_cycles,
    )
    spill = ALGASSystem(ds.base, graph, derated, **common).serve(ds.queries)

    hyb = HybridSystem(
        ds.base, graph, RTX_A6000, capacity_bytes=cap,
        pilot_dim=64, n_candidates=16, refine_steps=1, pilot_l_total=24,
        **common,
    )
    assert hyb.pilot.plan.fits, "pilot must fit the constrained capacity"
    hyb_report = hyb.serve(ds.queries)

    spill_recall = recall(spill.ids, gt)
    hyb_recall = recall(hyb_report.ids, gt)
    spill_lat = spill.serve.mean_latency_us()
    hyb_lat = hyb_report.serve.mean_latency_us()
    sim_speedup = spill_lat / hyb_lat

    hyb.hybrid_search_all(ds.queries)  # warm caches
    wall_hybrid = _best_of(lambda: hyb.hybrid_search_all(ds.queries))
    entry = np.array([hyb._medoid])

    def run_greedy():
        for q in ds.queries:
            greedy_search(ds.base, graph, q, K, L_TOTAL, entry, ds.metric)

    run_greedy()  # warm caches
    wall_greedy = _best_of(run_greedy)

    print(f"\nspill {spill_lat:.1f}us r={spill_recall:.4f}  "
          f"hybrid {hyb_lat:.1f}us r={hyb_recall:.4f}  "
          f"sim {sim_speedup:.2f}x  "
          f"wall {wall_hybrid:.3f}s vs greedy {wall_greedy:.3f}s")

    assert sim_speedup >= MIN_SIM_SPEEDUP, (
        f"hybrid simulated speedup {sim_speedup:.2f}x below the "
        f"{MIN_SIM_SPEEDUP}x gate ({spill_lat:.1f}us -> {hyb_lat:.1f}us)"
    )
    assert hyb_recall >= spill_recall - MAX_RECALL_DELTA, (
        f"hybrid recall@10 {hyb_recall:.4f} more than {MAX_RECALL_DELTA} "
        f"below um-spill {spill_recall:.4f}"
    )
    assert wall_hybrid < wall_greedy, (
        f"hybrid wall {wall_hybrid:.3f}s does not beat the cpu-greedy "
        f"floor {wall_greedy:.3f}s"
    )

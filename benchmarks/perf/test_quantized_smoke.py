"""Perf smoke gate for quantized traversal (docs/performance.md).

Marker-gated (``-m perf_smoke``) like the search/build gates.  On a small
dim=960 corpus the int8 substrate must be >= 1.5x faster than float32 on
the simulated-GPU latency axis (the cost model pricing each run's own
traces — the quantity the serve stack reports) while holding recall@16
within 0.02.  Wall clock is a hard gate too: on the host numpy engine int8
must stay within 5 % of float32 (``wall_speedup >= 0.95``).

Re-measured after the cache-blocked pair kernels (ISSUE 21; 2-core host,
30 interleaved runs a side): at this scale (24 queries) float32 16.7 ->
12.7 ms and int8 16.1 -> 12.5 ms, ratio 1.04x -> 1.01-1.02x; at 512
queries float32 290 -> 128 ms and int8 213 -> 129 ms, ratio 1.36x ->
1.00x.  Both paths got faster; int8 lost its *relative* host advantage
because the float32 kernel no longer streams its gathered operands through
DRAM: per gathered point row int8 now saves 2 880 B of cache-resident
copying and pays it back in the uint8 -> float32 cast inside the einsum
(profile at this scale: take 64 ms + einsum 39 ms float32, take 43 ms +
einsum 58 ms int8, over 20 runs).  The reading is the median of 40
interleaved float32 / int8 ratios (~1 s of runs; the old sequential
best-of-3 wandered +-5 %): 1.006-1.024 over eight trials then, 0.98-1.01
in later sessions at unchanged engine code, so the old 1.0x bar flaked.
The gate is what holds: int8 is no longer faster on the host, and must not
become slower than float32 by more than 5 % — a regression in the int8
kernel or codec gather still trips it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.groundtruth import recall
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import build_cagra
from repro.search import make_codec
from repro.search.batched import batched_multi_cta_search
from repro.telemetry import MetricsRegistry, to_prometheus_text
from tests.oracles import make_entries

pytestmark = pytest.mark.perf_smoke

MIN_SIM_SPEEDUP = 1.5
#: int8 within 5 % of float32 on host wall clock (measured 0.98-1.02x)
MIN_WALL_SPEEDUP = 0.95
MAX_RECALL_DELTA = 0.02
WALL_REPEATS = 40


def _interleaved_walls(fn_a, fn_b, repeats=WALL_REPEATS):
    """Wall times of the two callables run alternately, so that a slow
    spell of the host lands on both: ``(times_a, times_b)``."""
    times = ([], [])
    for _ in range(repeats):
        for fn, out in zip((fn_a, fn_b), times):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return times


@pytest.mark.perf_smoke
def test_int8_traversal_beats_float32_on_simulated_latency():
    ds = load_dataset("gist1m-mini", n=3000, n_queries=24, gt_k=16, seed=7)
    graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric)
    gt = ds.gt_at(16)
    cm = CostModel(RTX_A6000)
    entries = [
        make_entries(ds.n, 4, 2, np.random.default_rng(100 + i))
        for i in range(len(ds.queries))
    ]
    codec = make_codec("int8", ds.base, metric=ds.metric)

    def run(codec, record_trace):
        return batched_multi_cta_search(
            ds.base, graph, ds.queries, 16, 64, 4, metric=ds.metric,
            entries=entries, record_trace=record_trace, codec=codec,
        )

    run(None, False), run(codec, False)  # warm both paths

    # Wall clock on untraced runs (trace recording is Python bookkeeping
    # that would dilute the ratio equally and add noise), interleaved
    # against scheduler jitter; the traced runs below feed the sim axis.
    walls_f32, walls_i8 = _interleaved_walls(
        lambda: run(None, False), lambda: run(codec, False)
    )
    t_f32, t_i8 = statistics.median(walls_f32), statistics.median(walls_i8)
    wall_speedup = statistics.median(
        a / b for a, b in zip(walls_f32, walls_i8)
    )
    res_f32 = run(None, True)
    res_i8 = run(codec, True)

    sim_f32 = float(np.mean([cm.query_gpu_time_us(r.trace) for r in res_f32]))
    sim_i8 = float(np.mean([cm.query_gpu_time_us(r.trace) for r in res_i8]))
    rec_f32 = recall(np.stack([r.ids for r in res_f32]), gt)
    rec_i8 = recall(np.stack([r.ids for r in res_i8]), gt)

    reg = MetricsRegistry()
    reg.gauge("algas_quantized_smoke_sim_latency_us",
              "simulated per-query GPU latency",
              precision="float32").set(sim_f32)
    reg.gauge("algas_quantized_smoke_sim_latency_us",
              precision="int8").set(sim_i8)
    reg.gauge("algas_quantized_smoke_wall_seconds",
              "engine wall clock", precision="float32").set(t_f32)
    reg.gauge("algas_quantized_smoke_wall_seconds",
              precision="int8").set(t_i8)
    reg.gauge("algas_quantized_smoke_recall_at_16",
              "recall@16", precision="float32").set(rec_f32)
    reg.gauge("algas_quantized_smoke_recall_at_16",
              precision="int8").set(rec_i8)
    reg.gauge("algas_quantized_smoke_sim_speedup",
              "float32 / int8 simulated latency").set(sim_f32 / sim_i8)
    reg.gauge("algas_quantized_smoke_wall_speedup",
              "float32 / int8 wall clock").set(wall_speedup)
    print()
    print(to_prometheus_text(reg), end="")

    assert sim_f32 / sim_i8 >= MIN_SIM_SPEEDUP, (
        f"int8 simulated speedup {sim_f32 / sim_i8:.2f}x "
        f"below the {MIN_SIM_SPEEDUP}x gate "
        f"({sim_f32:.1f}us -> {sim_i8:.1f}us)"
    )
    assert abs(rec_i8 - rec_f32) <= MAX_RECALL_DELTA, (
        f"int8 recall@16 {rec_i8:.4f} drifts more than {MAX_RECALL_DELTA} "
        f"from float32 {rec_f32:.4f}"
    )
    assert wall_speedup >= MIN_WALL_SPEEDUP, (
        f"int8 wall-clock speedup {wall_speedup:.3f}x below the "
        f"{MIN_WALL_SPEEDUP}x gate ({t_f32:.4f}s -> {t_i8:.4f}s)"
    )

"""Perf smoke gates for graph construction: wave build >= 3x at n=20k, and
CAGRA set-up on BLAS and every core.

Marker-gated (``-m perf_smoke``) so the tier-1 suite stays timing-free;
the CI perf step (``scripts/test.sh --perf``) picks it up alongside the
search smoke.  One ``build_nsw`` and one run of the one-point-at-a-time
reference (``tests/oracles.py::scalar_build_nsw``, the builder
``build_nsw`` was until PR 22) at the headline n=20k scale — the slowest
smoke we run (~35 s), but construction is the dominant wall-clock cost
this gate exists to protect.  The 3x margin is roughly half the ~6x
recorded when the wave builder replaced the loop (docs/performance.md,
"Graph construction"), so load noise cannot trip it while a Python-loop
regression in the wave builder will.

The recall side of the gate rides along: the wave-built graph must stay
within 0.01 recall@10 of the reference-built one at identical search
settings.

The CAGRA set-up gate (docs/performance.md, "Set-up") builds on the
``gist1m-mini`` 3k x 960 corpus at degree 32 (``highdim_int8``'s graph):

* the production detour mask (``occlusion_prune_mask(rule="detour")``,
  batched-matmul Gram) equals the einsum reference
  (``tests/oracles.py::full_width_occlusion_prune_mask``) on every edge;
* pinned to one CPU, the production prune is at least ``MIN_PRUNE_SPEEDUP``
  times faster than the reference;
* ``build_cagra`` with every core takes at most ``MAX_BUILD_RATIO`` of the
  build pinned to one CPU (best of 3 a side, alternating), with identical
  CSR bytes.  A one-core host skips, saying so.

It measures in a child process with BLAS on one thread, as the e2e
benchmark runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.data import load_dataset
from repro.graphs import build_cagra, build_nsw, exact_knn_matrix, occlusion_prune_mask
from repro.parallel import cores
from repro.search import batched_multi_cta_search
from repro.telemetry import MetricsRegistry, to_prometheus_text
from tests.oracles import full_width_occlusion_prune_mask, scalar_build_nsw

pytestmark = pytest.mark.perf_smoke

N = 20_000
K = 10
SEARCH_L = 64
RECALL_TOL = 0.01

#: one-CPU einsum reference / production detour prune: 4.7-5.3x measured
#: on a 2-core host; the floor trips when the Gram leaves BLAS again
MIN_PRUNE_SPEEDUP = 2.5
#: every-core / one-CPU ``build_cagra`` wall time: 0.54-0.58x measured on
#: 2 cores, plus a margin; trips when the row ranges stop overlapping
MAX_BUILD_RATIO = 0.8


def _recall(ds, graph) -> float:
    gt = ds.gt_at(K)
    entries = np.zeros((len(ds.queries), 1, 1), dtype=np.int64)
    res = batched_multi_cta_search(
        ds.base, graph, ds.queries, K, SEARCH_L, 1, entries=entries,
        metric=ds.metric, record_trace=False,
    )
    hits = sum(
        len(set(r.ids.tolist()) & set(gt[i].tolist())) for i, r in enumerate(res)
    )
    return hits / (K * len(res))


@pytest.mark.perf_smoke
def test_wave_build_3x_and_recall_parity():
    ds = load_dataset("sift1m-mini", n=N, n_queries=64, gt_k=K, seed=7)

    t0 = time.perf_counter()
    g_scalar = scalar_build_nsw(ds.base, m=8, ef_construction=32,
                                metric=ds.metric)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    g_vec = build_nsw(ds.base, m=8, ef_construction=32, metric=ds.metric)
    t_vec = time.perf_counter() - t0

    r_scalar = _recall(ds, g_scalar)
    r_vec = _recall(ds, g_vec)

    reg = MetricsRegistry()
    reg.gauge("algas_build_smoke_seconds", "build smoke wall-clock",
              builder="scalar_oracle").set(t_scalar)
    reg.gauge("algas_build_smoke_seconds", builder="build_nsw").set(t_vec)
    reg.gauge("algas_build_smoke_speedup",
              "scalar oracle / build_nsw build-time ratio").set(t_scalar / t_vec)
    reg.gauge("algas_build_smoke_recall", "recall@10, entry-0 search",
              builder="scalar_oracle").set(r_scalar)
    reg.gauge("algas_build_smoke_recall", builder="build_nsw").set(r_vec)
    print()
    print(to_prometheus_text(reg), end="")

    assert t_vec * 3 < t_scalar, (
        f"wave NSW build below 3x: {t_scalar:.1f}s vs {t_vec:.1f}s "
        f"({t_scalar / t_vec:.2f}x)"
    )
    assert r_vec >= r_scalar - RECALL_TOL, (
        f"wave-built graph recall out of tolerance: "
        f"{r_vec:.4f} vs scalar {r_scalar:.4f}"
    )


def _pinned(cpus, fn):
    """``(seconds, fn())`` with this process pinned to ``cpus``."""
    every = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        os.sched_setaffinity(0, every)


def _cagra_setup_times() -> dict:
    """The gate's measurement, run by the test in a child process with BLAS
    on one thread (the e2e benchmark's setting: threads over row ranges on
    top of a multi-threaded BLAS oversubscribe the cores).  Checks the
    masks and the CSR; returns the wall times."""
    ds = load_dataset("gist1m-mini", n=3_000, n_queries=16, gt_k=K, seed=0)
    every = os.sched_getaffinity(0)
    one = {min(every)}
    ids, d = exact_knn_matrix(ds.base, 64, ds.metric)
    ids = ids.astype(np.int64)

    t_ref, ref = _pinned(one, lambda: full_width_occlusion_prune_mask(
        ds.base, ids, d, ds.metric, rule="detour"))
    t_prune, got = _pinned(one, lambda: occlusion_prune_mask(
        ds.base, ids, d, ds.metric, rule="detour"))
    assert np.array_equal(got, ref), int((got != ref).sum())

    def build():
        return build_cagra(ds.base, graph_degree=32, metric=ds.metric)

    runs = {"one": [], "every": []}
    for _ in range(3):
        runs["one"].append(_pinned(one, build))
        runs["every"].append(_pinned(every, build))
    pinned, split = runs["one"][0][1], runs["every"][0][1]
    assert split.indptr.tobytes() == pinned.indptr.tobytes()
    assert split.indices.tobytes() == pinned.indices.tobytes()
    return {"reference": t_ref, "prune": t_prune,
            "one": min(t for t, _ in runs["one"]),
            "every": min(t for t, _ in runs["every"])}


@pytest.mark.perf_smoke
def test_cagra_setup_runs_on_blas_and_every_core():
    n_cores = cores()
    if n_cores < 2:
        pytest.skip(f"one core available (cores() = {n_cores}): the set-up "
                    f"row ranges have nothing to overlap")
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity: cannot pin the one-CPU side")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    t = json.loads(run.stdout.splitlines()[-1])
    speedup, ratio = t["reference"] / t["prune"], t["every"] / t["one"]
    print(f"\ndetour prune 3k x 960, one CPU: einsum reference "
          f"{t['reference']:.2f} s, production {t['prune']:.2f} s "
          f"({speedup:.1f}x); build_cagra one CPU {t['one']:.2f} s, "
          f"{n_cores} cores {t['every']:.2f} s (ratio {ratio:.2f})")
    assert speedup >= MIN_PRUNE_SPEEDUP, (
        f"detour prune only {speedup:.2f}x the einsum reference "
        f"(floor {MIN_PRUNE_SPEEDUP}x)")
    assert ratio <= MAX_BUILD_RATIO, (
        f"build_cagra on {n_cores} cores {t['every']:.2f} s is {ratio:.2f}x "
        f"the one-CPU {t['one']:.2f} s, above the {MAX_BUILD_RATIO}x ceiling")


if __name__ == "__main__":
    print(json.dumps(_cagra_setup_times()))

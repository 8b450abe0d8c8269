"""Perf smoke gate for graph construction: wave build >= 3x at n=20k.

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
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import load_dataset
from repro.graphs import build_nsw
from repro.search import batched_intra_cta_search
from repro.telemetry import MetricsRegistry, to_prometheus_text
from tests.oracles import scalar_build_nsw

pytestmark = pytest.mark.perf_smoke

N = 20_000
K = 10
SEARCH_L = 64
RECALL_TOL = 0.01


def _recall(ds, graph) -> float:
    gt = ds.gt_at(K)
    entries = [np.array([0], dtype=np.int64)] * len(ds.queries)
    res = batched_intra_cta_search(
        ds.base, graph, ds.queries, K, SEARCH_L, entries,
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

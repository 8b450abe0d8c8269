"""Perf smoke gate: the lockstep search (``batched_multi_cta_search`` at
one CTA) must never lose to the scalar oracle query by query.

Marker-gated (``-m perf_smoke``) so the tier-1 suite stays timing-free;
the CI perf step runs ``pytest benchmarks/perf -m perf_smoke``.  Sized to
finish in a couple of seconds: one small corpus, one timing pass per
side.  The margin asserted here (vectorized strictly faster) is far
below the ~6x measured in BENCH_search.json, so scheduler noise cannot
trip it — but a regression that makes the SoA path slower than the
per-query loop will.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import load_dataset
from repro.graphs import build_cagra
from tests.oracles import make_entries
from tests.reference import intra_cta_search
from repro.search import batched_multi_cta_search
from repro.telemetry import MetricsRegistry, to_prometheus_text

pytestmark = pytest.mark.perf_smoke


@pytest.mark.perf_smoke
def test_vectorized_never_loses_to_scalar():
    ds = load_dataset("sift1m-mini", n=4000, n_queries=32, gt_k=8, seed=7)
    graph = build_cagra(ds.base, graph_degree=12, metric=ds.metric)
    entries = [
        make_entries(ds.n, 1, 2, np.random.default_rng(i))[0]
        for i in range(len(ds.queries))
    ]

    def scalar():
        return [
            intra_cta_search(ds.base, graph, q, 8, 64, entries[i],
                             metric=ds.metric)
            for i, q in enumerate(ds.queries)
        ]

    def vectorized():
        return batched_multi_cta_search(
            ds.base, graph, ds.queries, 8, 64, 1,
            metric=ds.metric, entries=[[e] for e in entries],
        )

    # Warm both paths once (imports, caches, the padded neighbor matrix),
    # and check parity on the warmed results.
    res_s, res_v = scalar(), vectorized()
    for a, b in zip(res_s, res_v):
        assert np.array_equal(a.ids, b.ids)
        assert np.asarray(a.dists).tobytes() == np.asarray(b.dists).tobytes()

    t0 = time.perf_counter()
    scalar()
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    vectorized()
    t_vectorized = time.perf_counter() - t0

    # Report through the telemetry registry so the gate's numbers come out
    # in the same exposition format as serving metrics.
    reg = MetricsRegistry()
    reg.gauge("algas_perf_smoke_seconds", "perf smoke wall-clock",
              backend="scalar").set(t_scalar)
    reg.gauge("algas_perf_smoke_seconds", backend="vectorized").set(t_vectorized)
    reg.gauge("algas_perf_smoke_speedup",
              "scalar / vectorized wall-clock ratio").set(t_scalar / t_vectorized)
    print()
    print(to_prometheus_text(reg), end="")

    assert t_vectorized < t_scalar, (
        f"vectorized backend lost to scalar: "
        f"{t_vectorized:.3f}s vs {t_scalar:.3f}s"
    )

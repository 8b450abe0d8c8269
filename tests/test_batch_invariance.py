"""Rows never interact: one property for every search and serve path.

Entries are hashed from each query's bytes, so a row keeps its ids,
distance bytes and priced CTA costs (every ``block_cost`` column) whole,
permuted, cut into sub-batches (the first query alone) and split over
per-thread engines.  A cluster serve's report, ids and Prometheus text do
not depend on its worker count or on telemetry, healthy or not.  The
explicit examples pin the precision and CTA splits every kind passes, and
a fixed case checks ALGAS and CAGRA on a larger corpus, row by row.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.parallel.pool as pool
import repro.search.batched as batched
from repro.baselines import CAGRASystem, GANNSSystem
from repro.core import ALGASSystem, ReplicatedServer, ServeConfig, ShardedServer
from repro.data import load_dataset
from repro.data.metrics import normalize
from repro.data.synthetic import latent_mixture
from repro.data.workload import Poisson, TrafficSpec
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import DynamicGraph, build_cagra
from repro.resilience import ResiliencePolicy, named_plan
from repro.telemetry import Telemetry
from repro.telemetry.exposition import to_prometheus_text

COST = CostModel(RTX_A6000)
N, NQ, K = 600, 24, 10
KINDS = ("algas", "cagra", "ganns", "dynamic", "sharded", "replicated")

precisions = st.sampled_from(("float32", "int8", "pq"))
cta_counts = st.sampled_from((1, 2, 8))
metrics = st.sampled_from(("l2", "cosine"))
# query indices (repeats allowed), a permutation and sub-batch cut points
batches = st.lists(st.integers(0, NQ - 1), min_size=1, max_size=12).flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))),
                           st.sets(st.integers(1, max(1, len(rows) - 1)), max_size=3)))
FIXED = (list(range(9)), [8, 3, 0, 5, 1, 7, 2, 6, 4], {4})


@functools.cache
def corpus(metric: str):
    base = latent_mixture(N, 32, intrinsic_dim=8, seed=3)
    queries = latent_mixture(NQ, 32, intrinsic_dim=8, seed=4)
    if metric == "cosine":
        base, queries = normalize(base), normalize(queries)
    return base, queries, build_cagra(base, graph_degree=12, metric=metric, seed=0)


@functools.cache
def system(kind: str, metric: str, precision: str, n_ctas: int):
    base, _, graph = corpus(metric)
    if kind == "dynamic":
        dyn = DynamicGraph(base, graph, metric=metric, precision=precision)
        dyn.delete_batch(np.arange(0, N, 7))
        return dyn
    kw = dict(metric=metric, k=K, l_total=64, batch_size=8, precision=precision,
              seed=1, **({} if kind == "ganns" else {"n_parallel": n_ctas}))
    if kind == "sharded":
        builder = functools.partial(build_cagra, graph_degree=12, metric=metric)
        return ShardedServer(base, builder, n_gpus=2, **kw)
    if kind == "replicated":
        return ReplicatedServer(base, graph, n_gpus=2, **kw)
    return {"algas": ALGASSystem, "cagra": CAGRASystem,
            "ganns": GANNSSystem}[kind](base, graph, **kw)


def _priced(block) -> np.ndarray:
    """Every ``block_cost`` column, one row of ``n_ctas × fields`` per query."""
    cost = COST.block_cost(block)
    cols = [getattr(cost, f.name).astype(np.float64) for f in dataclasses.fields(cost)]
    return np.stack(cols, axis=1).reshape(len(block), -1)


def _rows(kind: str, obj, queries: np.ndarray, n_ctas: int):
    """``(ids, dists, costs, blocks)``: padded results, each row's priced
    CTA costs and the trace blocks priced (a sharded serve's are its
    shards' searches, side by side)."""
    if kind == "dynamic":
        ids, dists, block = obj.search_batch(queries, K, record_trace=True,
                                             n_ctas=n_ctas)
    elif kind in ("sharded", "replicated"):
        rep = obj.serve(queries)
        ids, dists, block = rep.ids, rep.dists, rep.traces
    else:
        ids, dists, block = obj.search_all(queries)
    blocks = ([s.system.search_all(queries)[2] for s in obj.shards]
              if kind == "sharded" else [block])
    return ids, dists, np.hstack([_priced(b) for b in blocks]), blocks


def _assert_same_rows(a, b) -> None:
    assert np.array_equal(a[0], b[0])
    assert a[1].tobytes() == b[1].tobytes() and a[2].tobytes() == b[2].tobytes()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6)
@given(precision=precisions, n_ctas=cta_counts, metric=metrics, batch=batches)
@example(precision="float32", n_ctas=8, metric="l2", batch=FIXED)
@example(precision="int8", n_ctas=1, metric="l2", batch=FIXED)
@example(precision="pq", n_ctas=8, metric="cosine", batch=FIXED)
def test_rows_do_not_depend_on_the_batch(kind, precision, n_ctas, metric, batch):
    n_ctas = 1 if kind == "ganns" else n_ctas  # GANNS has one split
    obj = system(kind, metric, precision, n_ctas)
    rows, perm, cuts = batch
    queries = corpus(metric)[1][rows]
    search = functools.partial(_rows, kind, obj, n_ctas=n_ctas)
    whole = search(queries)
    _assert_same_rows(whole, [a[[rows.index(q) for q in rows]] for a in whole[:3]])
    inverse = np.argsort(perm)
    _assert_same_rows(whole, [a[inverse] for a in search(queries[list(perm)])[:3]])
    bounds = sorted({0, 1, len(rows), *cuts})
    parts = [search(queries[lo:hi])[:3] for lo, hi in zip(bounds, bounds[1:])]
    _assert_same_rows(whole, [np.concatenate(a) for a in zip(*parts)])

    engines: list[int] = []  # every row its own engine, on three "cores"
    threads = batched.on_threads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "MIN_ROWS_PER_THREAD", 1)
        mp.setattr(pool, "cores", lambda: 3)
        mp.setattr(batched, "on_threads",
                   lambda fn, engs: engines.append(len(engs)) or threads(fn, engs))
        split = search(queries)
    assert engines and max(engines) == min(3, len(rows))
    _assert_same_rows(whole, split)
    assert split[3] == whole[3]  # every trace column, not only the priced


@pytest.fixture(scope="module")
def sift():
    ds = load_dataset("sift1m-mini", n=3000, n_queries=64, gt_k=10, seed=0)
    return ds, build_cagra(ds.base, graph_degree=16, metric=ds.metric)


@pytest.mark.parametrize("precision", ["float32", "int8"])
@pytest.mark.parametrize("n_parallel", [1, 8])
@pytest.mark.parametrize("cls", [ALGASSystem, CAGRASystem], ids=["algas", "cagra"])
def test_system_rows_do_not_depend_on_the_batch(sift, cls, n_parallel, precision):
    """64 SIFT queries: whole, permuted and one by one give each row the
    same ids, distance bytes and priced costs."""
    ds, graph = sift
    system = cls(ds.base, graph, metric=ds.metric, k=10, l_total=64,
                 batch_size=8, n_parallel=n_parallel, precision=precision, seed=1)
    assert system.n_parallel == n_parallel
    queries = ds.queries

    def rows(qs):
        ids, dists, block = system.search_all(qs)
        return ids, dists, _priced(block)

    whole = rows(queries)
    perm = np.random.default_rng(0).permutation(len(queries))
    permuted = [a[np.argsort(perm)] for a in rows(queries[perm])]
    alone = [np.concatenate(a) for a in zip(*(rows(q[None, :]) for q in queries))]
    for other in (permuted, alone):
        _assert_same_rows(whole, other)


SCENARIOS = {
    "healthy": ServeConfig,
    "faults": lambda: ServeConfig(faults=named_plan("smoke")),
    "quorum": lambda: ServeConfig(faults=named_plan("shard-kill"),
                                  resilience=ResiliencePolicy(quorum_k=1)),
    "admission": lambda: ServeConfig(workload=TrafficSpec(
        process=Poisson(rate_qps=50_000, seed=5), deadline_us=2_000.0,
        max_queue_depth=16)),
    "hedging": lambda: ServeConfig(faults=named_plan("stragglers"),
                                   resilience=ResiliencePolicy(hedge_delay_us=500.0)),
}


@pytest.mark.parametrize("kind,scenario", [
    *(("sharded", s) for s in ("healthy", "faults", "quorum", "admission")),
    ("replicated", "hedging"),
])
@settings(max_examples=2)
@given(precision=precisions, n_ctas=cta_counts,
       rows=st.lists(st.integers(0, NQ - 1), min_size=8, max_size=NQ))
def test_reports_do_not_depend_on_workers_or_telemetry(kind, scenario, precision,
                                                       n_ctas, rows):
    server = system(kind, "l2", precision, n_ctas)
    queries = corpus("l2")[1][rows]

    def serve(parallelism, telemetry):
        cfg = dataclasses.replace(SCENARIOS[scenario](), parallelism=parallelism,
                                  telemetry=telemetry)
        try:
            return server.serve(queries, cfg)
        finally:
            if kind == "sharded":
                server.close()

    tel0, tel2 = Telemetry(), Telemetry()
    plain, watched, workers = serve(0, None), serve(0, tel0), serve(2, tel2)
    for rep in (watched, workers):
        assert rep.serve.to_json() == plain.serve.to_json()
        assert np.array_equal(rep.ids, plain.ids)
        assert rep.dists.tobytes() == plain.dists.tobytes()
    assert to_prometheus_text(tel0.registry) == to_prometheus_text(tel2.registry)
    # the span view reads the same across the worker fan-in, span for span
    assert len(tel0.spans) > 0
    assert tel0.to_dict(max_spans=None) == tel2.to_dict(max_spans=None)

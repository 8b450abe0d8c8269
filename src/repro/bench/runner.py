"""Benchmark runner: cached datasets, graphs, searches, and serve runs.

The expensive work in a figure reproduction is the *search* (it runs the
real kernels on real vectors).  Traces do not depend on the batching
discipline, so the runner caches them per search configuration and lets
every figure re-schedule the same traces under different engines/batch
sizes — both faster and a cleaner controlled comparison.

Benchmark scale is configurable through the ``REPRO_BENCH_SCALE`` env var
(``small``/``default``/``large``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..baselines import CAGRASystem, GANNSSystem, IVFSystem
from ..core import ALGASSystem
from ..core.pipeline import BaseGraphSystem, SystemReport
from ..core.serving import ServeReport
from ..data import Dataset, load_dataset
from ..data.workload import closed_loop
from ..graphs import GraphIndex, build_cagra, build_nsw
from ..parallel import make_pool

__all__ = [
    "BenchScale",
    "SCALE",
    "get_dataset",
    "get_graph",
    "make_system",
    "cached_search",
    "scheduled_report",
    "serve_system",
    "run_sweep",
    "BENCH_DATASETS",
]


@dataclass(frozen=True)
class BenchScale:
    """Problem sizes for the benchmark suite."""

    n_base: int
    n_queries: int
    graph_degree: int
    gt_k: int


_SCALES = {
    "small": BenchScale(n_base=2_500, n_queries=32, graph_degree=16, gt_k=128),
    "default": BenchScale(n_base=6_000, n_queries=64, graph_degree=16, gt_k=128),
    "large": BenchScale(n_base=20_000, n_queries=128, graph_degree=32, gt_k=128),
}

SCALE: BenchScale = _SCALES[os.environ.get("REPRO_BENCH_SCALE", "default")]

#: datasets the figures iterate over (paper order); GIST runs smaller
#: because 960-d brute-force ground truth dominates setup time.
BENCH_DATASETS = ("sift1m-mini", "gist1m-mini", "glove200-mini", "nytimes-mini")


@lru_cache(maxsize=8)
def get_dataset(name: str) -> Dataset:
    n = SCALE.n_base
    if name == "gist1m-mini":
        n = max(1000, n // 2)
    return load_dataset(name, n=n, n_queries=SCALE.n_queries, gt_k=SCALE.gt_k, seed=7)


@lru_cache(maxsize=16)
def get_graph(name: str, kind: str = "cagra") -> GraphIndex:
    ds = get_dataset(name)
    if kind == "cagra":
        return build_cagra(ds.base, graph_degree=SCALE.graph_degree, metric=ds.metric)
    if kind == "nsw":
        return build_nsw(ds.base, m=SCALE.graph_degree // 2, metric=ds.metric)
    raise ValueError(f"unknown graph kind {kind!r}")


_SYSTEMS = {
    "algas": ALGASSystem,
    "cagra": CAGRASystem,
    "ganns": GANNSSystem,
}


def make_system(
    method: str, dataset: str, graph_kind: str = "cagra", **kw
) -> BaseGraphSystem:
    """Instantiate a serving system over a cached dataset/graph."""
    ds = get_dataset(dataset)
    g = get_graph(dataset, graph_kind)
    cls = _SYSTEMS[method]
    kw.setdefault("metric", ds.metric)
    kw.setdefault("k", 16)
    kw.setdefault("l_total", 128)
    kw.setdefault("batch_size", 16)
    if method != "ganns":
        kw.setdefault("n_parallel", 8)
    return cls(ds.base, g, **kw)


# --------------------------------------------------------------- trace cache
_search_cache: dict[tuple, tuple] = {}


def _search_key(system: BaseGraphSystem, dataset: str, graph_kind: str) -> tuple:
    b = system.beam
    return (
        dataset,
        graph_kind,
        system.name,
        system.k,
        system.l_total,
        system.n_parallel,
        (b.offset_beam, b.beam_width) if b else None,
        system.seed,
        system.precision,
        system.rerank_mult,
    )


def cached_search(system: BaseGraphSystem, dataset: str, graph_kind: str = "cagra"):
    """Search the bench query set once per configuration; reuse everywhere."""
    key = _search_key(system, dataset, graph_kind)
    if key not in _search_cache:
        ds = get_dataset(dataset)
        _search_cache[key] = system.search_all(ds.queries)
    return _search_cache[key]


def scheduled_report(
    system: BaseGraphSystem, dataset: str, graph_kind: str = "cagra"
) -> SystemReport:
    """Search (cached) + schedule under the system's engine."""
    ids, dists, traces = cached_search(system, dataset, graph_kind)
    events = closed_loop(len(traces))
    jobs = system.jobs_from_traces(traces, events)
    serve = system.make_engine().serve(jobs)
    return SystemReport(ids=ids, dists=dists, serve=serve, traces=traces)


def serve_system(
    method: str, dataset: str, graph_kind: str = "cagra", **kw
) -> tuple[SystemReport, BaseGraphSystem]:
    """One-call helper: build system, search (cached), schedule."""
    system = make_system(method, dataset, graph_kind, **kw)
    return scheduled_report(system, dataset, graph_kind), system


# ----------------------------------------------------------------- IVF cache
_ivf_cache: dict[tuple, SystemReport] = {}


def run_sweep(fn, configs, parallelism: int = 0):
    """Apply ``fn`` to every config, optionally fanned across workers.

    The multi-core entry point for benchmark sweeps: each config is an
    independent (system build + search + schedule) pipeline, so the sweep
    scales across cores with no shared state.  Results return in config
    order regardless of completion order, so a parallel sweep emits the
    same result list as a sequential one.

    Process workers run ``fn`` in a separate interpreter: ``fn`` must be
    picklable (a module-level function, not a lambda) and the runner's
    per-process caches (:func:`get_dataset`, :func:`cached_search`) warm
    independently per worker — fork-context pools inherit already-warm
    parent caches copy-on-write.
    """
    with make_pool(parallelism) as pool:
        return pool.map(fn, list(configs))


def serve_ivf(
    dataset: str, nprobe: int, nlist: int | None = None, k: int = 16, batch_size: int = 16
) -> SystemReport:
    """Serve the bench query set with the IVF baseline (cached)."""
    ds = get_dataset(dataset)
    nlist = nlist or max(16, int(4 * np.sqrt(ds.n)))
    key = (dataset, nlist, nprobe, k, batch_size)
    if key not in _ivf_cache:
        system = IVFSystem(
            ds.base, nlist=nlist, nprobe=nprobe, metric=ds.metric,
            k=k, batch_size=batch_size, seed=3,
        )
        _ivf_cache[key] = system.serve(ds.queries)
    return _ivf_cache[key]

"""Per-figure experiment definitions (motivation figures: 1, 2, 3, 7).

Each ``figNN_data`` function computes the figure's underlying numbers from
cached searches and returns ``(text, data)`` where ``text`` reproduces the
rows/series the paper reports and ``data`` is machine-checkable (the
benchmark asserts the paper's qualitative shape on it).
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import format_series, format_table
from ..analysis.stats import (
    batch_step_spread,
    sort_time_fraction,
    step_statistics,
)
from ..gpusim.trace import TraceBlock
from .runner import BENCH_DATASETS, SCALE, cached_search, get_dataset, get_graph, make_system

__all__ = [
    "fig01_data",
    "fig02_data",
    "fig03_data",
    "fig07_data",
    "precision_frontier_data",
    "default_l",
]


def default_l() -> int:
    """Candidate-list size scaled to the bench corpus: at very small
    scales a 128-entry list covers so much of the corpus that every query
    exhausts it in the minimum number of steps and the Fig. 1/2 step tail
    disappears."""
    return max(32, min(128, SCALE.n_base // 40))


def _greedy_traces(dataset: str, l_total: int = 128):
    """Single-CTA greedy traces (the configuration Fig. 1–3 measure)."""
    system = make_system("ganns", dataset, "cagra", l_total=l_total)
    _, _, traces = cached_search(system, dataset, "cagra")
    return system, traces


def fig01_data(l_total: int | None = None):
    """Fig. 1 — distribution of query steps across the query set."""
    l_total = l_total or default_l()
    rows = []
    data = {}
    for name in BENCH_DATASETS:
        _, traces = _greedy_traces(name, l_total)
        st = step_statistics(traces)
        rows.append(
            (name, st.min, st.p50, st.mean, st.p99, st.max, 100 * st.max_over_mean)
        )
        data[name] = st
    text = format_table(
        ["dataset", "min", "p50", "mean", "p99", "max", "max/mean %"],
        rows,
        title=f"Fig.1 — query step distribution (candidate list = {l_total})",
    )
    return text, data


def fig02_data(batch_size: int = 32, n_batches: int = 8, l_total: int | None = None):
    """Fig. 2 — step spread within batches (batch = 32, 8 batches shown)."""
    l_total = l_total or default_l()
    rows = []
    data = {}
    for name in BENCH_DATASETS:
        _, traces = _greedy_traces(name, l_total)
        spread = batch_step_spread(traces, batch_size)[:n_batches]
        data[name] = spread
        for bi, (mn, mx, ratio) in enumerate(spread):
            rows.append((name, bi, mn, mx, 100 * (ratio - 1)))
    text = format_table(
        ["dataset", "batch", "min steps", "max steps", "slowest vs fastest %"],
        rows,
        title=f"Fig.2 — step spread within batches of {batch_size}",
    )
    return text, data


def fig03_data(l_total: int = 128):
    """Fig. 3 — share of search time spent on sorting vs calculation."""
    rows = []
    data = {}
    for name in BENCH_DATASETS:
        system, traces = _greedy_traces(name, l_total)
        frac = sort_time_fraction(traces, system.cost_model)
        rows.append((name, 100 * (1 - frac), 100 * frac))
        data[name] = frac
    text = format_table(
        ["dataset", "calculation %", "sorting %"],
        rows,
        title="Fig.3 — calculation vs sorting time (greedy search)",
    )
    return text, data


def fig07_data(dataset: str = "sift1m-mini", l_total: int = 128):
    """Fig. 7 — selected-candidate distance vs search step.

    Reports the mean (over queries) distance of the expanded candidate,
    normalized by each query's final TopK distance, at relative step
    positions — the paper's "sharp early drop, late convergence" curve.
    """
    _, traces = _greedy_traces(dataset, l_total)
    block = TraceBlock.from_traces(traces)
    positions = np.linspace(0.0, 1.0, 11)
    curves = []
    for row in range(0, block.n_rows, block.n_ctas):  # each query's CTA 0
        # skip the seed step
        d = block.best_dist[block.starts[row] + 1:block.starts[row + 1]]
        if d.size < 4 or not np.isfinite(d).all():
            continue
        final = d[-1] if d[-1] > 0 else d[d > 0].min(initial=1.0)
        idx = np.minimum((positions * (d.size - 1)).astype(int), d.size - 1)
        curves.append(d[idx] / final)
    mean_curve = np.mean(np.array(curves), axis=0)
    text = format_series(
        f"Fig.7 — {dataset} distance vs step (relative to final)",
        [f"{p:.0%}" for p in positions],
        [float(v) for v in mean_curve],
        floatfmt=".2f",
    )
    return text, mean_curve


def precision_frontier_data(
    dataset: str = "gist1m-mini",
    l_values: tuple[int, ...] = (64, 128, 256),
    k: int = 16,
    n_ctas: int = 4,
    rerank_mult: int = 2,
):
    """Recall-vs-latency frontier: float32 / int8 at matched ``l_total``.

    Both precisions search the same graph from the same entry points at each
    candidate budget, so every frontier point differs only in the distance
    substrate (plus the int8 path's exact re-rank).  Latency is the
    simulated-GPU per-query time from the cost model — the quantity the
    serve stack reports — priced from each run's own traces (quantized
    steps are priced as DP4A work, the re-rank as a float32 pass).
    """
    from ..data.groundtruth import recall
    from ..gpusim.costmodel import CostModel
    from ..gpusim.device import RTX_A6000
    from ..search.batched import batched_multi_cta_search
    from ..search.precision import make_codec

    ds = get_dataset(dataset)
    g = get_graph(dataset, "cagra")
    gt = ds.gt_at(k)
    cm = CostModel(RTX_A6000)
    codecs = {
        "float32": None,
        "int8": make_codec("int8", ds.base, metric=ds.metric),
    }
    rows = []
    data: dict[str, list[dict]] = {p: [] for p in codecs}
    for l_total in l_values:
        for prec, codec in codecs.items():
            res = batched_multi_cta_search(
                ds.base, g, ds.queries, k, l_total, n_ctas,
                metric=ds.metric, codec=codec, rerank_mult=rerank_mult,
            )
            ids = np.stack([r.ids for r in res])
            rec = recall(ids, gt)
            # a query's GPU time is its slowest CTA's
            cta_us = cm.cta_durations_us(res.traces).reshape(len(res), n_ctas)
            lat = float(np.mean(cta_us.max(axis=1)))
            rows.append((prec, l_total, rec, lat))
            data[prec].append(
                {"l_total": l_total, "recall": rec, "sim_latency_us": lat}
            )
    text = format_table(
        ["precision", "l_total", f"recall@{k}", "sim latency (us)"],
        rows,
        title=(
            f"Recall-latency frontier — {dataset} "
            f"(n={ds.n}, dim={ds.dim}, {n_ctas} CTAs, "
            f"rerank {rerank_mult}x k)"
        ),
    )
    return text, data

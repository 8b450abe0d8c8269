"""Metric definitions and the reduction from spans to per-layer numbers.

``BENCHMARK.json`` at the repository root is the contract: every workload
emits every metric it lists, and its bounds are shares of the parent's
median.  Five end-to-end metrics of the issue apply to one or two workloads
(or are exactly 0 on a healthy run), which that contract cannot carry; they
live in :data:`EXTRA`, are printed and written to ``--out`` beside the
others, and ``compare.py`` judges them the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Workload-specific end-to-end metrics.  ``abs`` bounds are differences,
#: not shares (a recall gap near 0 has no meaningful share).
EXTRA = {
    # open_loop_rates (at the reference rate) and stream_churn
    "sim_p99_e2e_us": {"unit": "us", "better": "lower", "bound": 0.005},
    # open_loop_rates; any fall to a lower rate is a regression
    "max_rate_within_slo_qps": {"unit": "q/s", "better": "higher", "bound": 0.0},
    # stream_churn
    "recall_drop_vs_frozen": {
        "unit": "fraction", "better": "lower", "bound": 0.005, "abs": True},
    # online_small_batch
    "sim_latency_ratio_vs_cagra": {
        "unit": "ratio", "better": "lower", "bound": 0.005},
    # all
    "failed_frac": {
        "unit": "fraction", "better": "lower", "bound": 0.0, "abs": True},
}

_HOST_UNITS = ("s", "MiB", "1/s", "ns")
_HOST_WORDS = ("host_", "overhead", "speedup")


def is_deterministic(name: str, unit: str) -> bool:
    """True for numbers that repeat exactly at a fixed seed — simulated
    statistics, recall, exact counts — as opposed to host-clock readings.
    Two runs of one commit must agree on them to the bit."""
    return "sim_" in name or (
        unit not in _HOST_UNITS and not any(w in name for w in _HOST_WORDS)
    )


def _ratio(num, den) -> float:
    """``num / den``; 0.0 when a counter is missing or the layer never ran."""
    if num is None or not den:
        return 0.0
    return num / den


def layer_metrics(tr: Tracer, workload, measured: dict) -> tuple[dict, list]:
    """Every ``per_layer`` metric of the contract, from one traced run.

    ``measured`` carries the walls the runner took itself (untraced and
    traced medians, warm-up, side measurements) and the simulated per-layer
    statistics of the last outcome.  A layer the workload never entered
    reads 0.  Returns the metrics and the names of counters the trace
    reader could not find.
    """
    name = workload.name
    setup = tr.self_times(f"{name}/setup")
    reps = tr.self_times(f"{name}/rep")
    n_reps = max(tr.calls(workload.top_span, f"{name}/rep"), 1)

    def busy(span: str) -> float:
        return reps.get(span, 0.0) / n_reps

    def count(span: str, key: str):
        total = 0
        for i in tr.select(f"{name}/rep"):
            sp = tr.spans[i]
            if sp.name == span and key in sp.counts:
                if sp.counts[key] is None:
                    return None
                total += sp.counts[key]
        return total / n_reps

    missing = []

    def search_count(key: str):
        parts = [count("search.search_all", key),
                 count("graphs.dynamic.search_batch", key)]
        if None in parts:
            missing.append(f"search.{key}")
            return None
        return sum(parts)

    queries = search_count("queries")
    steps = search_count("steps")
    distances = search_count("distances")
    search_busy = busy("search.search_all")
    # serve_while_update also searches its frozen-graph oracle without a
    # trace; only spans that counted distances enter the per-distance cost.
    search_host = search_busy + sum(
        tr.spans[i].duration for i in tr.select(f"{name}/rep")
        if tr.spans[i].name == "graphs.dynamic.search_batch"
        and "distances" in tr.spans[i].counts
    ) / n_reps
    warm = tr.durations("search.search_all", f"{name}/warmup")
    jobs = count("gpusim.price", "jobs")
    scheduled = count("core.schedule", "queries")
    codec = getattr(workload, "codec", None)

    out = dict(measured["sim_layer"])
    out.update({
        "data.load.busy_s": setup.get("data.load", 0.0),
        "graphs.build_cagra.busy_s": setup.get("graphs.build_cagra", 0.0),
        "graphs.build_cagra.points_per_s": _ratio(
            tr.count_sum("graphs.build_cagra", "rows", f"{name}/setup"),
            setup.get("graphs.build_cagra")),
        "graphs.build_nsw.busy_s": setup.get("graphs.build_nsw", 0.0),
        "graphs.build_nsw.points_per_s": _ratio(
            tr.count_sum("graphs.build_nsw", "rows", f"{name}/setup"),
            setup.get("graphs.build_nsw")),
        "search.precision.codec_fit.busy_s": setup.get(
            "search.precision.codec_fit", 0.0),
        "search.precision.bytes_per_vector": float(
            codec.info().bytes_per_vector if codec is not None
            else 4 * workload.ds.dim),
        "search.search_all.busy_s": search_busy,
        "search.warmup_extra_s": (
            sum(warm) - search_busy if warm else 0.0),
        "search.steps_per_query": _ratio(steps, queries),
        "search.distances_per_query": _ratio(distances, queries),
        "search.expanded_per_query": _ratio(search_count("expanded"), queries),
        "search.sorts_per_step": _ratio(search_count("sorts"), steps),
        "search.new_point_frac": _ratio(distances, search_count("fetched")),
        "search.host_ns_per_distance": 1e9 * _ratio(search_host, distances),
        "gpusim.price.busy_s": busy("gpusim.price"),
        "gpusim.price.host_us_per_step": 1e6 * _ratio(
            busy("gpusim.price"), count("search.search_all", "steps")),
        "gpusim.sim_cta_us_per_query": _ratio(
            count("gpusim.price", "gpu_us"), jobs),
        "core.schedule.busy_s": busy("core.schedule"),
        "core.schedule.host_us_per_query": 1e6 * _ratio(
            busy("core.schedule"), scheduled),
        "core.pipeline.serve.busy_s": busy("core.pipeline.serve"),
        "core.cluster.serve.busy_s": busy("core.cluster.serve"),
        "load.replay_jobs.busy_s": busy("load.replay_jobs"),
        "streaming.self_s": busy("streaming.serve_while_update"),
        "trace_overhead_frac": (
            measured["traced_wall_s"] / measured["untraced_wall_s"] - 1.0),
        "core.cluster.parallel_speedup": _ratio(
            measured["untraced_wall_s"], measured.get("parallel_wall_s")),
        "parallel.first_serve_extra_s": (
            measured["warmup_wall_s"] - measured["parallel_wall_s"]
            if "parallel_wall_s" in measured else 0.0),
        "telemetry.on_overhead_frac": (
            measured["telemetry_on_wall_s"] / measured["untraced_wall_s"] - 1.0
            if "telemetry_on_wall_s" in measured else 0.0),
    })
    for op, key in (("insert_batch", "rows"), ("delete_batch", "rows"),
                    ("search_batch", "rows"), ("compact", None)):
        span = f"graphs.dynamic.{op}"
        out[f"{span}.busy_s"] = busy(span)
        if key:
            out[f"{span}.{key}"] = float(count(span, key) or 0)
        else:
            out[f"{span}.calls"] = tr.calls(span, f"{name}/rep") / n_reps
    for key in ("streaming.sim_update_busy_us", "streaming.waves",
                "streaming.compactions"):
        out.setdefault(key, 0.0)
    return {k: float(out[k]) for k in PER_LAYER}, missing


def top_level_self_share(tr: Tracer, workload) -> float:
    """Share of the traced top-level wall that no layer span below it
    covers: glue, or on stream_churn and sharded_fanout a layer of its own."""
    reps = tr.self_times(f"{workload.name}/rep")
    total = sum(reps.values())
    return reps.get(workload.top_span, 0.0) / total if total else 0.0

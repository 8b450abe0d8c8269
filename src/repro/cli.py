"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``   list the registered corpora (paper Table III)
``build``      build a graph index over a dataset and save it (.npz)
``serve``      search + schedule a query set with a chosen system
``load``       sweep offered load through the replica fleet and report the
               latency-vs-QPS curve + max sustainable QPS
               (docs/load_testing.md)
``chaos``      serve a workload under a fault plan (docs/robustness.md)
``stream``     serve while streaming insert/delete waves churn the graph,
               graded against degradation SLOs (docs/robustness.md)
``tune``       run the §IV-C adaptive tuner for a configuration
``figure``     regenerate one of the paper's figures/tables
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="ALGAS reproduction command-line interface"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets (Table III)")

    b = sub.add_parser("build", help="build a graph index and save it")
    b.add_argument("--dataset", default="sift1m-mini")
    b.add_argument("--n", type=int, default=None, help="base vectors (default: spec)")
    b.add_argument("--graph",
                   choices=("cagra", "nsw", "hnsw", "nsg", "knn"),
                   default="cagra")
    b.add_argument("--degree", type=int, default=16)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-o", "--output", required=True, help="output .npz path")

    s = sub.add_parser("serve", help="serve the query set with a system")
    s.add_argument("--dataset", default="sift1m-mini")
    s.add_argument("--n", type=int, default=6000)
    s.add_argument("--queries", type=int, default=64)
    s.add_argument("--graph", choices=("cagra", "nsw"), default="cagra")
    s.add_argument("--degree", type=int, default=16)
    s.add_argument("--system",
                   choices=("algas", "hybrid", "cagra", "ganns", "ivf"),
                   default="algas",
                   help="'hybrid' is ALGAS through the memory-bounded CPU-GPU "
                        "tier: GPU pilot-subgraph traversal, PCIe candidate "
                        "shipment, bounded CPU refinement "
                        "(docs/performance.md)")
    s.add_argument("--k", type=int, default=16)
    s.add_argument("--l", dest="l_total", type=int, default=128)
    s.add_argument("--batch", type=int, default=16)
    s.add_argument("--nprobe", type=int, default=8, help="IVF only")
    s.add_argument("--capacity-gib", type=float, default=None,
                   help="device memory budget the pilot subgraph is sized "
                        "against (default: full device HBM)")
    s.add_argument("--sample-ratio", type=float, default=None,
                   help="pilot vertex sample fraction (default: auto-sized "
                        "to fit --capacity-gib)")
    s.add_argument("--pilot-dim", type=int, default=None,
                   help="pilot reduced dimensionality (default: auto)")
    s.add_argument("--reduction", choices=("svd", "random"), default="svd",
                   help="pilot dimensionality reduction: truncated SVD or "
                        "seeded random projection")
    s.add_argument("--n-candidates", type=int, default=32,
                   help="candidate ids each pilot search ships over PCIe "
                        "to seed the CPU refinement")
    s.add_argument("--refine-steps", type=int, default=12,
                   help="CPU refinement graph-walk step budget "
                        "(0 = exact re-rank of the candidates only)")
    s.add_argument("--pilot-l-total", type=int, default=None,
                   help="pilot traversal candidate budget (default: "
                        "min(max(2*n_candidates, 32), l))")
    s.add_argument("--precision", choices=("float32", "int8", "pq"),
                   default="float32",
                   help="traversal distance substrate: 'int8' walks the "
                        "graph on SQ8 codes, 'pq' on PQ ADC tables — both "
                        "finish with an exact float32 re-rank "
                        "(docs/performance.md); graph systems only")
    s.add_argument("--rerank-mult", type=int, default=2,
                   help="exact re-rank pool multiplier: re-score "
                        "rerank_mult*k survivors (quantized precisions)")
    s.add_argument("--profile", action="store_true",
                   help="run the serve under cProfile and print the top-20 "
                        "cumulative wall-clock hotspots")
    s.add_argument("--host-threads", default="auto")
    s.add_argument("--state-mode", choices=("gdrcopy", "naive"), default="gdrcopy")
    s.add_argument("--no-beam", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write serve telemetry (latency histograms, slot "
                        "occupancy, drop counters) to PATH; .prom/.txt emits "
                        "Prometheus text, anything else a JSON document")
    s.add_argument("--slot-timeline", action="store_true",
                   help="print an ASCII per-slot occupancy timeline")
    s.add_argument("--workload", default=None, metavar="PROC",
                   help="arrival process: closed | uniform:QPS | poisson:QPS "
                        "| diurnal:BASE:PEAK[:PERIOD_S] | bursty:BASE:BURST "
                        "(default: closed loop)")

    ld = sub.add_parser(
        "load",
        help="sweep offered load through the replica fleet "
             "(docs/load_testing.md)",
    )
    ld.add_argument("--dataset", default="sift1m-mini")
    ld.add_argument("--n", type=int, default=100_000,
                    help="corpus size; >= 50k uses the chunked/memory-mapped "
                         "loaders (1M+ reachable)")
    ld.add_argument("--queries", type=int, default=128,
                    help="searched query templates replayed over the "
                         "arrival stream")
    ld.add_argument("--events", type=int, default=2000,
                    help="arrivals per offered-load point")
    ld.add_argument("--warmup-frac", type=float, default=0.1,
                    help="fraction of each stream excluded from latency/"
                         "answered accounting (steady-state measurement)")
    ld.add_argument("--graph", choices=("cagra", "nsw"), default="nsw")
    ld.add_argument("--degree", type=int, default=16)
    ld.add_argument("--k", type=int, default=16)
    ld.add_argument("--l", dest="l_total", type=int, default=128)
    ld.add_argument("--process", choices=("poisson", "diurnal", "bursty"),
                    default="poisson",
                    help="arrival process family; the sweep sets each "
                         "point's MEAN rate")
    ld.add_argument("--rates", default=None, metavar="QPS,QPS,...",
                    help="offered rates to sweep (default: auto around the "
                         "fleet's estimated capacity)")
    ld.add_argument("--replicas", type=int, default=2,
                    help="fixed-fleet replica count (and autoscaler start)")
    ld.add_argument("--slots-per-replica", type=int, default=16)
    ld.add_argument("--deadline-us", type=float, default=None,
                    help="relative drop deadline per query")
    ld.add_argument("--max-queue-depth", type=int, default=None,
                    help="central admission queue limit (load shedding)")
    ld.add_argument("--autoscale", action="store_true",
                    help="also sweep with the queue-depth autoscaler "
                         "(min=--replicas, max=--max-replicas)")
    ld.add_argument("--max-replicas", type=int, default=4)
    ld.add_argument("--provision-delay-us", type=float, default=200_000.0)
    ld.add_argument("--p99-budget-us", type=float, default=None,
                    help="p99 e2e budget for the sustainable-QPS headline "
                         "(default: 20x the unloaded mean service time)")
    ld.add_argument("--min-answered", type=float, default=0.99)
    ld.add_argument("--parallelism", type=int, default=0,
                    help="worker count for the rate sweep "
                         "(0 = sequential; identical curves)")
    ld.add_argument("--seed", type=int, default=0)
    ld.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="write the sweep as a BENCH_load.json document")

    st = sub.add_parser(
        "stream",
        help="serve while insert/delete waves churn the graph, graded "
             "against degradation SLOs (docs/robustness.md)",
    )
    st.add_argument("--dataset", default="sift1m-mini")
    st.add_argument("--n", type=int, default=4000)
    st.add_argument("--queries", type=int, default=64,
                    help="query templates; --events arrivals replay them")
    st.add_argument("--events", type=int, default=None,
                    help="arrival events (default: one per template)")
    st.add_argument("--degree", type=int, default=12)
    st.add_argument("--ef", type=int, default=64,
                    help="dynamic-graph search/link ef")
    st.add_argument("--k", type=int, default=16)
    st.add_argument("--slots", type=int, default=8)
    st.add_argument("--precision", choices=("float32", "int8", "pq"),
                    default="float32")
    st.add_argument("--workload", default="poisson:2000", metavar="PROC",
                    help="arrival process: closed | uniform:QPS | "
                         "poisson:QPS | diurnal:BASE:PEAK[:PERIOD_S] | "
                         "bursty:BASE:BURST | spike:BASE:AT_US:N[:WIDTH_US]")
    st.add_argument("--deadline-us", type=float, default=None,
                    help="relative drop deadline per query")
    st.add_argument("--insert-qps", type=float, default=2000.0,
                    help="steady insert rate (vectors/s of simulated time)")
    st.add_argument("--delete-qps", type=float, default=500.0,
                    help="steady delete rate")
    st.add_argument("--wave-us", type=float, default=10_000.0,
                    help="update batching window")
    st.add_argument("--plan", default=None,
                    help="fault plan name/path; its update faults (storm, "
                         "compaction-stall, codebook-drift) are consumed by "
                         "the runner (e.g. 'update-storm')")
    st.add_argument("--compact-threshold", type=float, default=0.05,
                    help="auto-compact when tombstones exceed this fraction "
                         "of the live set")
    st.add_argument("--min-answered", type=float, default=0.99)
    st.add_argument("--max-recall-drop", type=float, default=0.02,
                    help="recall@k floor relative to the frozen-graph oracle")
    st.add_argument("--p99-ceiling-us", type=float, default=None,
                    help="e2e p99 SLO ceiling (unset: not enforced)")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="write the run as a BENCH_stream.json document")

    c = sub.add_parser("chaos", help="serve a workload under a fault plan "
                                     "(docs/robustness.md)")
    c.add_argument("--plan", default="smoke",
                   help="built-in plan name or path to a JSON plan "
                        "(built-ins: none|smoke|slot-hangs|shard-kill|stragglers)")
    c.add_argument("--mode", choices=("sharded", "replicated", "single"),
                   default="sharded")
    c.add_argument("--gpus", type=int, default=4)
    c.add_argument("--dataset", default="sift1m-mini")
    c.add_argument("--n", type=int, default=4000)
    c.add_argument("--queries", type=int, default=96)
    c.add_argument("--batch", type=int, default=8)
    c.add_argument("--k", type=int, default=8)
    c.add_argument("--degree", type=int, default=12)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--parallelism", type=int, default=0,
                   help="worker count for shard/replica fan-out "
                        "(0 = sequential; results are identical)")
    c.add_argument("--watchdog-us", type=float, default=None,
                   help="watchdog no-progress budget (default: policy default)")
    c.add_argument("--min-completion", type=float, default=0.99,
                   help="exit non-zero if the answered fraction is below this")
    c.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's telemetry (.prom/.txt Prometheus, "
                        "else JSON)")

    t = sub.add_parser("tune", help="adaptive GPU tuning (§IV-C)")
    t.add_argument("--device", default="RTX A6000")
    t.add_argument("--slots", type=int, default=16)
    t.add_argument("--l", dest="l_total", type=int, default=128)
    t.add_argument("--k", type=int, default=16)
    t.add_argument("--degree", type=int, default=32)
    t.add_argument("--dim", type=int, default=128)
    t.add_argument("--beam-width", type=int, default=1)

    f = sub.add_parser("figure", help="regenerate a paper figure/table")
    f.add_argument("name", help="fig01|fig02|fig03|fig07|fig10|fig12|fig13|"
                               "fig14|fig16|fig17|fig18|table1|headline|"
                               "bubble|frontier")
    return p


def _cmd_datasets(_args) -> int:
    from .analysis.report import format_table
    from .data.datasets import DATASETS

    rows = [
        (s.name, s.paper_name, s.paper_vertices, s.dim, s.metric, s.default_n)
        for s in DATASETS.values()
    ]
    print(
        format_table(
            ["name", "paper corpus", "paper vertices", "dim", "metric", "mini default n"],
            rows,
            title="Registered datasets (paper Table III stand-ins)",
        )
    )
    return 0


def _cmd_build(args) -> int:
    import time

    from .data import load_dataset
    from .graphs import (
        build_cagra,
        build_hnsw,
        build_nsg,
        build_nsw,
        exact_knn_graph,
    )

    ds = load_dataset(args.dataset, n=args.n, seed=args.seed)
    t0 = time.perf_counter()
    if args.graph == "cagra":
        g = build_cagra(ds.base, graph_degree=args.degree, metric=ds.metric)
    elif args.graph == "nsw":
        g = build_nsw(ds.base, m=args.degree // 2, metric=ds.metric,
                      seed=args.seed)
    elif args.graph == "hnsw":
        g = build_hnsw(ds.base, m=args.degree // 2, metric=ds.metric,
                       seed=args.seed)
    elif args.graph == "nsg":
        g = build_nsg(ds.base, out_degree=args.degree, metric=ds.metric,
                      seed=args.seed)
    else:
        g = exact_knn_graph(ds.base, args.degree, metric=ds.metric)
    dt = time.perf_counter() - t0
    g.save(args.output)
    print(f"saved {g} -> {args.output} ({dt:.2f}s)")
    return 0


def _cmd_serve(args) -> int:
    import time

    from .core import ALGASSystem, ServeConfig
    from .data import load_dataset, recall
    from .telemetry import Telemetry

    ds = load_dataset(args.dataset, n=args.n, n_queries=args.queries,
                      gt_k=max(64, args.k), seed=args.seed)
    if args.system == "ivf":
        if args.precision != "float32":
            print("--precision selects the graph-traversal substrate; "
                  "the IVF baseline has no graph traversal", file=sys.stderr)
            return 2
        from .baselines import IVFSystem

        system = IVFSystem(
            ds.base, nlist=max(16, int(4 * np.sqrt(ds.n))), nprobe=args.nprobe,
            metric=ds.metric, k=args.k, batch_size=args.batch, seed=args.seed,
        )
    else:
        t0 = time.perf_counter()
        if args.graph == "cagra":
            from .graphs import build_cagra

            g = build_cagra(ds.base, graph_degree=args.degree, metric=ds.metric)
        else:
            from .graphs import build_nsw

            g = build_nsw(ds.base, m=args.degree // 2, metric=ds.metric,
                          seed=args.seed)
        build_info = {
            "graph": args.graph,
            "build_seconds": round(time.perf_counter() - t0, 4),
        }

        def make_system(precision: str):
            """The served system over graph ``g`` at ``precision``."""
            kw = dict(metric=ds.metric, k=args.k, l_total=args.l_total,
                      batch_size=args.batch, seed=args.seed,
                      build_info=build_info, precision=precision,
                      rerank_mult=args.rerank_mult)
            if args.system == "cagra":
                from .baselines import CAGRASystem

                return CAGRASystem(ds.base, g, **kw)
            if args.system == "ganns":
                from .baselines import GANNSSystem

                return GANNSSystem(ds.base, g, **kw)
            ht = args.host_threads
            kw.update(host_threads=ht if ht == "auto" else int(ht),
                      state_mode=args.state_mode, beam=not args.no_beam)
            if args.system == "algas":
                return ALGASSystem(ds.base, g, **kw)
            from .hybrid import HybridSystem

            cap = (None if args.capacity_gib is None
                   else int(args.capacity_gib * 2**30))
            return HybridSystem(
                ds.base, g,
                capacity_bytes=cap,
                sample_ratio=args.sample_ratio,
                pilot_dim=args.pilot_dim,
                reduction=args.reduction,
                n_candidates=args.n_candidates,
                refine_steps=args.refine_steps,
                pilot_l_total=args.pilot_l_total,
                **kw,
            )

        system = make_system(args.precision)
    workload = None
    if args.workload is not None:
        from .data.workload import ArrivalProcess

        workload = ArrivalProcess.parse(args.workload)
    tel = Telemetry() if (args.metrics_out or args.slot_timeline) else None
    t0 = time.perf_counter()
    rep = system.serve(ds.queries, ServeConfig(telemetry=tel, workload=workload))
    wall_s = time.perf_counter() - t0
    prof_report = None
    if args.profile:
        # Separate diagnostic pass: profiling inflates the Python-heavy
        # stages, so the timed serve above stays unprofiled and the
        # vs-float32 wall ratio stays honest.
        from .bench.profiling import profile_call

        _, prof_report = profile_call(system.serve, ds.queries, ServeConfig())
    rec = recall(rep.ids, ds.gt_at(args.k))
    s = rep.serve.summary()
    print(f"system={args.system} dataset={args.dataset} n={ds.n} "
          f"batch={args.batch} k={args.k}")
    build_meta = rep.serve.meta.get("build")
    if build_meta:
        print(f"graph build   = {build_meta['graph']} "
              f"({build_meta['build_seconds']:.2f}s)")
    tier_meta = rep.serve.meta.get("tier")
    if tier_meta:
        pi, rf = tier_meta["pilot"], tier_meta["refine"]
        print(f"tier          = hybrid "
              f"(pilot {pi['n_pilot']}x{pi['pilot_dim']} {pi['reduction']}, "
              f"fits={pi['fits']}; refine {rf['n_candidates']} cands, "
              f"{rf['steps_run']} steps, {rf['mean_host_us']:.1f} us host)")
    prec_meta = rep.serve.meta.get("precision")
    if prec_meta and prec_meta["precision"] != "float32":
        codec = prec_meta["codec"]
        extra = (f" m={codec.m} ks={codec.ks}"
                 if getattr(codec, "m", None) else "")
        print(f"precision     = {prec_meta['precision']} "
              f"(rerank {prec_meta['rerank_mult']}x k,"
              f" {codec.bytes_per_vector} B/vec{extra})")
        # Both speedup axes vs a float32 reference serve of the same
        # config (docs/performance.md, "Wall-clock vs simulated speed"):
        # sim = the cost model's priced GPU latency ratio, wall = the
        # host-side numpy engine's measured clock ratio.
        twin = make_system("float32")
        t0 = time.perf_counter()
        ref = twin.serve(ds.queries)
        ref_wall_s = time.perf_counter() - t0
        ref_lat = ref.serve.summary()["mean_latency_us"]
        print(f"vs float32    = sim {ref_lat / s['mean_latency_us']:.2f}x, "
              f"wall {ref_wall_s / wall_s:.2f}x")
    print(f"recall@{args.k} = {rec:.4f}")
    print(f"mean latency  = {s['mean_latency_us']:.1f} us "
          f"(p50 {s['p50_latency_us']:.1f}, p99 {s['p99_latency_us']:.1f})")
    print(f"throughput    = {s['throughput_qps']:,.0f} qps")
    print(f"gpu util      = {s['gpu_utilization']:.2f}  "
          f"mean bubble = {s['mean_bubble_us']:.1f} us")
    meta = rep.serve.meta
    recs = rep.serve.records
    print(f"dropped       = {meta.get('dropped', 0)}  "
          f"failed = {meta.get('failed', 0)}  "
          f"retried = {sum(1 for r in recs if r.retries)}  "
          f"partial = {sum(1 for r in recs if r.partial)}")
    if args.slot_timeline and tel is not None:
        print(tel.slot_timeline())
    if args.metrics_out and tel is not None:
        from .telemetry import write_metrics

        write_metrics(tel, args.metrics_out)
        print(f"metrics       -> {args.metrics_out}")
    if prof_report is not None:
        print("\n--- cProfile: top cumulative hotspots ---")
        print(prof_report, end="")
    return 0


def _cmd_load(args) -> int:
    import time

    from .core import ALGASSystem
    from .data import load_big_dataset, load_dataset
    from .data.workload import Bursty, Diurnal, Poisson, closed_loop
    from .graphs import build_cagra, build_nsw
    from .load import (
        AutoscalerPolicy,
        FleetConfig,
        max_sustainable_qps,
        sweep_load,
        write_bench_load,
    )

    t_start = time.perf_counter()
    loader = load_big_dataset if args.n >= 50_000 else load_dataset
    ds = loader(args.dataset, n=args.n, n_queries=args.queries,
                gt_k=max(64, args.k), seed=args.seed)
    if args.graph == "cagra":
        g = build_cagra(ds.base, graph_degree=args.degree, metric=ds.metric)
    else:
        g = build_nsw(ds.base, m=args.degree // 2, metric=ds.metric,
                      seed=args.seed)
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=args.k,
                         l_total=args.l_total, seed=args.seed)
    # One search pass prices the templates; the sweep replays them over
    # arbitrarily long arrival streams (docs/load_testing.md).
    _, _, traces = system.search_all(ds.queries)
    templates = system.jobs_from_traces(traces, closed_loop(len(traces)))

    fleet = FleetConfig(
        n_replicas=args.replicas,
        slots_per_replica=args.slots_per_replica,
        deadline_us=args.deadline_us,
        max_queue_depth=args.max_queue_depth,
    )
    svc_us = float(np.mean([max(j.cta_durations_us) for j in templates]))
    per_query_us = svc_us + fleet.dispatch_overhead_us + fleet.collect_overhead_us
    capacity_qps = args.replicas * args.slots_per_replica * 1e6 / per_query_us
    if args.rates:
        rates = [float(r) for r in args.rates.split(",")]
    else:
        rates = [round(capacity_qps * f) for f in (0.25, 0.5, 0.75, 0.9, 1.1, 1.4)]
    budget = (args.p99_budget_us if args.p99_budget_us is not None
              else 20.0 * per_query_us)

    def make_process(rate: float):
        if args.process == "poisson":
            return Poisson(rate_qps=rate, seed=args.seed)
        if args.process == "diurnal":
            # sinusoid mean is (base+peak)/2 -> swing +-50% around the rate
            return Diurnal(base_qps=rate * 0.5, peak_qps=rate * 1.5,
                           seed=args.seed)
        # bursty defaults dwell 80% base / 20% burst; base=r/2, burst=3r
        # keeps the stationary mean at the swept rate.
        return Bursty(base_qps=rate * 0.5, burst_qps=rate * 3.0, seed=args.seed)

    def progress(pt) -> None:
        print(f"  {pt.offered_qps:>9,.0f} qps -> p99 {pt.p99_e2e_us:>11,.1f} us"
              f"  answered {pt.answered_frac:.3f}"
              f"  peak replicas {pt.peak_replicas}")

    print(f"corpus={args.dataset} n={ds.n} dim={ds.dim} graph={args.graph} "
          f"templates={len(templates)} events/point={args.events}")
    print(f"est. fleet capacity ~ {capacity_qps:,.0f} qps "
          f"(mean service {per_query_us:.1f} us)  "
          f"p99 budget {budget:,.0f} us")
    curves = {}
    label_fixed = f"fixed-{args.replicas}r"
    print(f"[{label_fixed}] {args.process} sweep")
    curves[label_fixed] = sweep_load(
        templates, make_process, rates, args.events, fleet,
        seed=args.seed, warmup_frac=args.warmup_frac, progress=progress,
        parallelism=args.parallelism,
    )
    if args.autoscale:
        # Floor at the fixed-fleet size: the comparison is "same starting
        # fleet, allowed to grow", not "allowed to shrink below baseline".
        policy = AutoscalerPolicy(
            min_replicas=args.replicas, max_replicas=args.max_replicas,
            provision_delay_us=args.provision_delay_us,
        )
        label_auto = f"autoscaled-max{args.max_replicas}r"
        print(f"[{label_auto}] {args.process} sweep")
        curves[label_auto] = sweep_load(
            templates, make_process, rates, args.events, fleet,
            autoscaler=policy, seed=args.seed,
            warmup_frac=args.warmup_frac, progress=progress,
            parallelism=args.parallelism,
        )
    for label, pts in curves.items():
        mx = max_sustainable_qps(pts, budget, args.min_answered)
        print(f"max sustainable qps [{label}] = {mx:,.0f}")
    if args.output:
        corpus = {
            "dataset": args.dataset, "n": int(ds.n), "dim": int(ds.dim),
            "graph": args.graph, "degree": args.degree, "k": args.k,
            "l_total": args.l_total, "templates": len(templates),
            "events_per_point": args.events,
            "warmup_frac": args.warmup_frac, "process": args.process,
            "seed": args.seed,
        }
        write_bench_load(
            args.output, corpus, curves, budget,
            min_answered=args.min_answered,
            extra={"fleet": fleet,
                   "wall_seconds": round(time.perf_counter() - t_start, 2)},
        )
        print(f"wrote {args.output}")
    return 0


def _cmd_stream(args) -> int:
    from .data import load_dataset
    from .data.workload import ArrivalProcess, TrafficSpec
    from .graphs import build_cagra
    from .graphs.dynamic import DynamicGraph
    from .resilience import load_plan
    from .streaming import DegradationSLO, UpdateStream, serve_while_update

    ds = load_dataset(args.dataset, n=args.n, n_queries=args.queries,
                      gt_k=max(32, args.k), seed=args.seed)
    dyn = DynamicGraph(
        ds.base,
        build_cagra(ds.base, graph_degree=args.degree, metric=ds.metric),
        metric=ds.metric, ef=args.ef,
    )
    try:
        process = ArrivalProcess.parse(args.workload)
        faults = load_plan(args.plan) if args.plan else None
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    workload = TrafficSpec(process, n_queries=args.events,
                           deadline_us=args.deadline_us, seed=args.seed)
    stream = UpdateStream(insert_qps=args.insert_qps,
                          delete_qps=args.delete_qps,
                          wave_us=args.wave_us, seed=args.seed + 7)
    slo = DegradationSLO(min_answered_frac=args.min_answered,
                         max_recall_drop=args.max_recall_drop,
                         p99_ceiling_us=args.p99_ceiling_us)
    report = serve_while_update(
        dyn, ds.queries, stream,
        workload=workload, n_queries=args.events, k=args.k,
        slots=args.slots, precision=args.precision,
        faults=faults, slo=slo, compact_threshold=args.compact_threshold,
    )
    print(f"dataset={args.dataset} n={args.n} plan={args.plan or 'none'}")
    print(report.summary())
    if args.output:
        import json as _json

        from .core.serving import _json_safe

        doc = {"benchmark": "serve-while-update stream",
               "dataset": {"name": args.dataset, "n": args.n,
                           "metric": ds.metric},
               "plan": args.plan,
               "report": report.to_dict()}
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(_json_safe(doc), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.passed else 1


def _cmd_chaos(args) -> int:
    from .resilience import ResiliencePolicy, load_plan, run_chaos
    from .telemetry import Telemetry, write_metrics

    try:
        plan = load_plan(args.plan)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    policy = None
    if args.watchdog_us is not None:
        policy = ResiliencePolicy(watchdog_budget_us=args.watchdog_us)
    tel = Telemetry() if args.metrics_out else None
    result = run_chaos(
        plan,
        mode=args.mode,
        n_gpus=args.gpus,
        dataset=args.dataset,
        n=args.n,
        n_queries=args.queries,
        batch_size=args.batch,
        k=args.k,
        degree=args.degree,
        seed=args.seed,
        policy=policy,
        telemetry=tel,
        parallelism=args.parallelism,
    )
    print(f"plan={args.plan} seed={result.plan.seed}")
    print(result.summary())
    if args.metrics_out and tel is not None:
        write_metrics(tel, args.metrics_out)
        print(f"metrics       -> {args.metrics_out}")
    ok = result.passed(args.min_completion)
    print(f"verdict       = {'PASS' if ok else 'FAIL'} "
          f"(min completion {args.min_completion:.2%})")
    return 0 if ok else 1


def _cmd_tune(args) -> int:
    from .core import tune
    from .gpusim.device import DEVICE_PRESETS

    if args.device not in DEVICE_PRESETS:
        print(f"unknown device {args.device!r}; presets: {list(DEVICE_PRESETS)}",
              file=sys.stderr)
        return 2
    t = tune(
        DEVICE_PRESETS[args.device], n_slots=args.slots, l_total=args.l_total,
        k=args.k, max_degree=args.degree, dim=args.dim, beam_width=args.beam_width,
    )
    print(f"device            = {args.device}")
    print(f"feasible          = {t.feasible}")
    print(f"N_parallel        = {t.n_parallel}")
    print(f"threads/block     = {t.threads_per_block}")
    print(f"blocks/SM         = {t.n_block_per_sm}")
    print(f"shared mem/block  = {t.block_shared_mem_bytes} B")
    print(f"reserved cache    = {t.reserved_cache_per_block} B")
    print(f"per-CTA list      = {t.per_cta_cand_len}")
    print(f"expand list       = {t.expand_list_len}")
    return 0 if t.feasible else 1


_FIGURES = {
    "fig01": ("figures", "fig01_data"),
    "fig02": ("figures", "fig02_data"),
    "fig03": ("figures", "fig03_data"),
    "fig07": ("figures", "fig07_data"),
    "fig10": ("experiments", "fig10_11_data"),
    "fig12": ("experiments", "fig12_data"),
    "fig13": ("experiments", "fig13_data"),
    "fig14": ("experiments", "fig14_15_data"),
    "fig16": ("experiments", "fig16_data"),
    "fig17": ("experiments", "fig17_data"),
    "fig18": ("experiments", "fig18_data"),
    "table1": ("experiments", "table1_data"),
    "headline": ("experiments", "headline_data"),
    "bubble": ("experiments", "bubble_data"),
    "frontier": ("figures", "precision_frontier_data"),
}


def _cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        print(f"unknown figure {args.name!r}; known: {sorted(_FIGURES)}",
              file=sys.stderr)
        return 2
    module_name, fn_name = _FIGURES[args.name]
    import importlib

    mod = importlib.import_module(f"repro.bench.{module_name}")
    text, _ = getattr(mod, fn_name)()
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "datasets": _cmd_datasets,
        "build": _cmd_build,
        "serve": _cmd_serve,
        "load": _cmd_load,
        "chaos": _cmd_chaos,
        "stream": _cmd_stream,
        "tune": _cmd_tune,
        "figure": _cmd_figure,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

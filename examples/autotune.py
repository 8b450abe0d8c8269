"""Empirical auto-tuning for a recall target.

The analytic tuner (§IV-C) guarantees residency; this extension measures a
query sample to pick the *fastest* feasible (L, N_parallel, beam)
configuration that meets a recall target — closing the loop VDTuner [42]
motivates.

Run:  python examples/autotune.py
"""

from __future__ import annotations

from repro import build_cagra, load_dataset
from repro.analysis.report import format_table
from repro.core.tuning import autotune_algas


def main() -> None:
    ds = load_dataset("glove200-mini", n=6_000, n_queries=128, gt_k=32, seed=3)
    graph = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
    for target in (0.85, 0.95):
        res = autotune_algas(
            ds.base, graph, ds.queries, ds.gt, target_recall=target,
            k=10, batch_size=16, metric=ds.metric, sample=32, seed=0,
        )
        rows = [
            (t.l_total, t.n_parallel, "on" if t.beam else "off",
             f"{t.recall:.3f}", t.mean_latency_us, t.throughput_qps)
            for t in res.trials
        ]
        print(format_table(
            ["L", "N_parallel", "beam", "recall", "latency_us", "qps"],
            rows,
            title=f"target recall {target}: trials",
        ))
        b = res.best
        status = "satisfied" if res.satisfied else "best effort"
        print(f"-> {status}: L={b.l_total} T={b.n_parallel} "
              f"beam={'on' if b.beam else 'off'} recall={b.recall:.3f} "
              f"latency={b.mean_latency_us:.1f}us\n")


if __name__ == "__main__":
    main()

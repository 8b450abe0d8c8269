"""Graph family comparison: CAGRA vs NSW vs raw kNN.

The paper shows ALGAS is graph-agnostic ("To verify ALGAS can support
general GPU graph, we use NSW-GANNS graph and CAGRA graph").  This example
builds all three families over one corpus, prints structural diagnostics,
and serves the same query set through ALGAS on each.

Run:  python examples/graph_comparison.py
"""

from __future__ import annotations

from repro import ALGASSystem, build_cagra, build_nsw, load_dataset, recall
from repro.analysis.report import format_table
from repro.graphs import exact_knn_graph, graph_stats, medoid, reachable_fraction

K = 10


def main() -> None:
    ds = load_dataset("glove200-mini", n=6_000, n_queries=96, gt_k=32, seed=4)
    print(f"dataset: {ds.name} ({ds.n} x {ds.dim}, {ds.metric})\n")

    graphs = {
        "cagra(d=16)": build_cagra(ds.base, graph_degree=16, metric=ds.metric),
        "nsw(m=8)": build_nsw(ds.base, m=8, metric=ds.metric),
        "knn(k=16)": exact_knn_graph(ds.base, 16, metric=ds.metric),
    }

    entry = medoid(ds.base, ds.metric)
    rows = []
    for name, g in graphs.items():
        st = graph_stats(g)
        rows.append(
            (
                name,
                st.mean_degree,
                st.max_degree,
                st.n_weak_components,
                reachable_fraction(g, entry),
            )
        )
    print(
        format_table(
            ["graph", "mean deg", "max deg", "weak comps", "reach from medoid"],
            rows,
            title="Structural diagnostics",
            floatfmt=".2f",
        )
    )

    rows = []
    for name, g in graphs.items():
        system = ALGASSystem(
            ds.base, g, metric=ds.metric, k=K, l_total=128, batch_size=16
        )
        rep = system.serve(ds.queries)
        rows.append(
            (
                name,
                f"{recall(rep.ids, ds.gt_at(K)):.3f}",
                rep.mean_latency_us,
                rep.throughput_qps,
            )
        )
    print()
    print(
        format_table(
            ["graph", f"recall@{K}", "latency_us", "qps"],
            rows,
            title="ALGAS serving on each graph (batch 16, L=128)",
        )
    )
    print(
        "\nraw kNN graphs lack the long-range/detour structure that makes"
        "\ngreedy search converge — CAGRA's pruning+reverse edges and NSW's"
        "\nincremental links both fix this, which is why indexes matter."
    )


if __name__ == "__main__":
    main()

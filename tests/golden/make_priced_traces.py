"""Generator of ``tests/golden/priced_traces.json``.

The fixture freezes, for a fixed 600-point corpus, every op-trace column
and every priced CTA duration the search → price path produced at commit
``b3ad8e2`` (the last one that materialized traces as ``StepRecord``
objects).  ``tests/test_trace_block.py`` checks the columnar
``TraceBlock`` path against it, which makes "bit-identical to the object
path" a tier-1 fact.

Each case also digests its result ids and distances, and the IVF-Flat /
IVF-PQ baselines (l2 and cosine, PQ with and without the exact re-rank)
are cases too; those were frozen at ``782626c``, the last commit with a
separate IVF-PQ index and quantizer module.  The three ``*/dynamic-tombstones``
cases were re-frozen when ``DynamicGraph`` searches began to run the beam
extend: their result ids and distances did not move, their trace columns
(half the steps) and priced durations did.

Every search case except the IVF ones was re-frozen when every CTA began
to seed half its candidate list (``seeds_per_cta``) from entries hashed
from its query (``query_entries``) instead of two rng-drawn entries, and
a ``DynamicGraph`` CTA likewise (CTA 0's first seed the live medoid):
``n_steps`` and the trace digest moved in all fifteen, and the result
digest in the three PQ cases of eight CTAs or a dynamic graph.  The six
IVF cases did not move.

This script reads traces only through the row-object surface both layouts
share (iterate → ``.ctas`` → ``.steps`` → fields; ``cta_duration_us`` on a
``CTATrace``), so it reproduces the fixture on either side of a change.
New cases are generated on a checkout of the parent commit (copy this
script there if it predates them), then the fixture is copied back:

    PYTHONPATH=src python -m tests.golden.make_priced_traces
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.baselines import IVFPQSystem, IVFSystem
from repro.core.pipeline import ALGASSystem
from repro.data.metrics import normalize
from repro.data.synthetic import latent_mixture
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph

FIXTURE = Path(__file__).with_name("priced_traces.json")

#: trace precision tag -> the code the fixture hashes
PRECISION_CODE = {"float32": 0, "int8": 1, "pq": 2}
INT_COLUMNS = (
    "select_offset", "n_expanded", "n_neighbors_fetched", "n_visited_checks",
    "n_new_points", "dim", "sort_size", "cand_list_len",
)
K = 10
L_TOTAL = 64


def corpus():
    base = latent_mixture(600, 32, intrinsic_dim=10, seed=31)
    queries = latent_mixture(40, 32, intrinsic_dim=10, seed=32)
    return base, queries


def cases():
    """``name -> callable() -> ((ids, dists, traces), cost_model)``."""
    base, queries = corpus()
    graph = build_cagra(base, graph_degree=12, seed=0)
    out = {}

    def system_case(precision, n_ctas, beam):
        def run():
            system = ALGASSystem(
                base, graph, k=K, l_total=L_TOTAL, batch_size=8,
                n_parallel=n_ctas, beam=beam, precision=precision, pq_m=8,
                seed=5,
            )
            return system.search_all(queries), system.cost_model
        return run

    def dynamic_case(precision):
        def run():
            dyn = DynamicGraph(base, graph, max_degree=14, ef=48,
                               precision=precision)
            dyn.delete_batch(np.arange(0, 600, 7))
            dyn.insert_batch(latent_mixture(30, 32, intrinsic_dim=10, seed=33))
            dyn.delete_batch(np.arange(3, 600, 42))
            out = dyn.search_batch(queries, K, record_trace=True)
            return out, ALGASSystem(base, graph, k=K, l_total=L_TOTAL).cost_model
        return run

    def ivf_case(metric, rerank):
        def run():
            pts, qs = (base, queries) if metric == "l2" else (
                normalize(base), normalize(queries))
            kw = dict(nlist=16, nprobe=4, metric=metric, k=K, batch_size=8,
                      seed=5)
            system = (IVFSystem(pts, **kw) if rerank is None else
                      IVFPQSystem(pts, m=8, ks=64, rerank=rerank, **kw))
            return system.search_all(qs), system.cost_model
        return run

    for precision in PRECISION_CODE:
        for n_ctas in (1, 8):
            for beam in (True, False):
                name = f"{precision}/ctas{n_ctas}/{'beam' if beam else 'greedy'}"
                out[name] = system_case(precision, n_ctas, beam)
        out[f"{precision}/dynamic-tombstones"] = dynamic_case(precision)
    for metric in ("l2", "cosine"):
        out[f"ivf-flat/{metric}"] = ivf_case(metric, None)
        for rerank in (0, 64):
            out[f"ivf-pq/{metric}/rerank{rerank}"] = ivf_case(metric, rerank)
    return out


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def hash_columns(cols: dict, durations) -> dict:
    """Canonical digests: counts as int64, flags as uint8, ``best_dist`` as
    float64 with one NaN bit pattern, durations as ``float.hex`` text."""
    out = {name: sha(np.asarray(cols[name], dtype=np.int64))
           for name in ("lens", "result_len", *INT_COLUMNS, "precision")}
    out["did_sort"] = sha(np.asarray(cols["did_sort"], dtype=np.uint8))
    best = np.asarray(cols["best_dist"], dtype=np.float64)
    out["best_dist"] = sha(np.where(np.isnan(best), np.nan, best))
    text = ",".join(float(d).hex() for d in durations)
    out["cta_durations_us"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def results(ids, dists) -> dict:
    """Digests of a search's padded result ids and distances."""
    return {"ids": sha(np.asarray(ids, dtype=np.int64)),
            "dists": sha(np.asarray(dists, dtype=np.float32))}


def walk(traces, cost_model) -> dict:
    """Columns and durations read through the row-object surface."""
    cols = {name: [] for name in
            ("lens", "result_len", *INT_COLUMNS, "precision", "did_sort",
             "best_dist")}
    durations = []
    n_ctas = None
    for trace in traces:
        ctas = getattr(trace, "ctas", None) or (trace,)
        n_ctas = len(ctas)
        for cta in ctas:
            cols["lens"].append(len(cta.steps))
            cols["result_len"].append(cta.result_len)
            durations.append(cost_model.cta_duration_us(cta))
            for step in cta.steps:
                for name in (*INT_COLUMNS, "did_sort", "best_dist"):
                    cols[name].append(getattr(step, name))
                cols["precision"].append(PRECISION_CODE[step.precision])
    return {
        "n_queries": len(traces),
        "n_ctas": n_ctas,
        "n_steps": len(cols["precision"]),
        "result_len": [int(x) for x in cols["result_len"]],
        "sha256": hash_columns(cols, durations),
    }


def main() -> None:
    doc = {}
    for name, run in cases().items():
        (ids, dists, traces), cost_model = run()
        doc[name] = {**walk(traces, cost_model), "results": results(ids, dists)}
    # one case per line keeps the per-row result_len lists out of the diff
    body = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(doc[name], sort_keys=True)}"
        for name in sorted(doc)
    )
    FIXTURE.write_text("{\n" + body + "\n}\n")
    print(f"wrote {FIXTURE} ({len(doc)} cases, "
          f"{sum(c['n_steps'] for c in doc.values())} steps)")


if __name__ == "__main__":
    main()

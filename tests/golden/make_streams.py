"""Generator of ``tests/golden/streams.json``.

The fixture freezes what ``serve_while_update`` produced at commit
``b1b6bf7`` — the last commit where every epoch searched its reads and
its wave's insert points in two separate lockstep runs — so
``tests/test_streaming.py`` makes "a stream epoch did not move when its
reads and insert searches began to share one run" a tier-1 fact.  Per
scenario it holds one sha256 of ``StreamReport.to_json()`` and one each
of the final ``_adj`` / ``_counts`` / ``_alive`` rows ``[0, n_total)``.

The scenarios cover the fused epoch and every fallback to a separate
insert search:

* ``float32`` — the default float32 read (the fused path);
* ``update-storm`` — the named chaos plan: a 5 000-insert burst onto a
  400-point index splits into sub-waves;
* ``compaction_stall`` — stretched compaction barriers at a low trigger;
* ``codebook_drift-int8`` — int8 reads (another kernel) under drift;
* ``explicit-l`` — ``l`` below the insert beam (another capacity; at the
  tuned split a read's and an insert's per-CTA lists both floor at ``k``,
  so they share one run);
* ``cosine`` — unit-norm corpus under the cosine metric;
* ``zero-insert-waves`` — a trickle of inserts: many delete-only waves;
* ``empty-epochs`` — waves far denser than arrivals: epochs with no reads.

Regenerating on ``b1b6bf7`` reproduces every digest but ``cosine``'s:

    PYTHONPATH=src python -m tests.golden.make_streams

``cosine`` was re-frozen when the runner began normalizing its drawn
inserts under cosine (before, its 200 inserted rows had norms 0.59 to
1.46 while every cosine kernel assumes unit rows); the other seven
scenarios did not move.  ``codebook_drift-int8`` gives its precision to
the ``DynamicGraph`` constructor, where the stream path takes it now; on
a commit that predates that, the same values went to
``serve_while_update`` and produced the same digests.

All eight were re-frozen together when two things moved at once: every
``DynamicGraph`` search began to run the beam extend
(``BeamConfig.for_capacity`` of its list: up to four expansions a sort
once it diffuses), and ``UpdateStream.waves`` stopped clamping the last
steady window to the horizon, so each scenario lost the one wave that
landed 1 us after its last read (``compaction_stall`` and
``zero-insert-waves`` with it a trailing compaction; every scenario keeps
at least three others).

They were re-frozen together once more when every search of a stream
call began to run the multi-CTA split ``tune`` gives the call's slots (8
CTAs a query here; entries hashed from the query onto the well-linked
live vertices, one CPU TopK merge per epoch): ``report``, ``adj`` and
``counts`` moved in every scenario, ``alive`` in none (the same waves
delete the same victims).

And once more when every CTA of a ``DynamicGraph`` search began to seed
half its candidate list from the hashed entries (CTA 0's first seed the
live medoid), where CTA 0 had entered at the medoid alone and the others
at two hashed vertices: ``report``, ``adj`` and ``counts`` moved in all
eight scenarios, ``alive`` in none.

After ``8ef5f79`` the epochs' reports began to merge through the census
the cluster servers use (``repro.core.serving.merge_reports``), which
keeps the epochs' defense ledgers: ``report`` moved in ``update-storm``,
``compaction_stall`` and ``codebook_drift-int8``, whose fault plans arm
the epoch engines, by a ``resilience`` entry; ``adj``, ``counts`` and
``alive`` moved in none.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.data.synthetic import latent_mixture
from repro.data.workload import Poisson
from repro.graphs import build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.resilience import FaultPlan, UpdateFault, named_plan
from repro.streaming import UpdateStream, serve_while_update

FIXTURE = Path(__file__).with_name("streams.json")
N, DIM, N_QUERIES = 400, 16, 24

#: name -> (metric, DynamicGraph keywords, serve_while_update keywords,
#: stream keywords, query rate)
SCENARIOS = {
    "float32": ("l2", {}, {}, {}, 2000.0),
    "update-storm": (
        "l2", {}, dict(faults=named_plan("update-storm")), {}, 2000.0),
    "compaction_stall": (
        "l2", {},
        dict(faults=FaultPlan(seed=1, update_faults=(
            UpdateFault("compaction_stall", factor=3.0),)),
             compact_threshold=0.02),
        {}, 2000.0),
    "codebook_drift-int8": (
        "l2", dict(precision="int8", rerank_mult=4),
        dict(faults=FaultPlan(seed=1, update_faults=(
            UpdateFault("codebook_drift", at_us=8_000.0, magnitude=3.0),))),
        {}, 2000.0),
    "explicit-l": ("l2", {}, dict(l=24), {}, 2000.0),
    "cosine": ("cosine", {}, {}, {}, 2000.0),
    "zero-insert-waves": ("l2", {}, {}, dict(insert_qps=250.0), 2000.0),
    "empty-epochs": ("l2", {}, {}, dict(wave_us=1_500.0), 1000.0),
}


def corpus(metric: str) -> tuple[np.ndarray, np.ndarray]:
    """(base, queries): the streaming suite's latent mixture, unit rows
    under cosine."""
    base = latent_mixture(N, DIM, intrinsic_dim=8, seed=21)
    queries = latent_mixture(N_QUERIES, DIM, intrinsic_dim=8, seed=22)
    if metric == "cosine":
        base = base / np.linalg.norm(base, axis=1, keepdims=True)
        queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    return base.astype(np.float32), queries.astype(np.float32)


def run(name: str):
    """``(report, dyn)`` of one scenario, run from scratch."""
    metric, graph_kw, kw, stream_kw, rate = SCENARIOS[name]
    base, queries = corpus(metric)
    dyn = DynamicGraph(
        base, build_cagra(base, graph_degree=10, metric=metric, seed=0),
        metric=metric, max_degree=12, ef=48, **graph_kw,
    )
    stream = UpdateStream(**{
        "insert_qps": 4000.0, "delete_qps": 2000.0, "wave_us": 4_000.0,
        "seed": 3, **stream_kw,
    })
    rep = serve_while_update(
        dyn, queries, stream, workload=Poisson(rate_qps=rate, seed=1),
        n_queries=96, k=8, slots=4, **kw,
    )
    return rep, dyn


def digests(rep, dyn) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    n = dyn.n_total
    return {
        "report": sha(rep.to_json().encode()),
        "adj": sha(np.ascontiguousarray(dyn._adj[:n]).tobytes()),
        "counts": sha(np.ascontiguousarray(dyn._counts[:n]).tobytes()),
        "alive": sha(np.ascontiguousarray(dyn._alive[:n]).tobytes()),
    }


def main() -> None:
    doc = {name: digests(*run(name)) for name in SCENARIOS}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} stream digests to {FIXTURE}")


if __name__ == "__main__":
    main()

"""Generator of ``tests/golden/graphs.json``.

The fixture freezes what the wave / array builders produced at commit
``9bc1209`` — the last commit where they sat behind
``build_backend="vectorized"`` next to the per-vertex loops — so
``tests/test_builders.py`` makes "the builders did not move when they
became ``build_nsw`` / ``build_hnsw`` / ``build_nsg`` / ``build_cagra``"
a tier-1 fact: one sha256 over ``indptr ‖ indices`` per family × metric
× seed on the 800 × 24 corpus of that suite, plus ``use_nn_descent=True``
for CAGRA.

Regenerating on ``9bc1209`` reproduces every digest (``build_backend``
is passed only while a builder still has the parameter, so the script
runs on either side of its removal):

    PYTHONPATH=src python -m tests.golden.make_graphs
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np

from repro.graphs import build_cagra, build_hnsw, build_nsg, build_nsw

FIXTURE = Path(__file__).with_name("graphs.json")
N, DIM = 800, 24
METRICS = ("l2", "cosine")
SEEDS = (0, 3)

BUILDERS = {
    # name -> (fn, kwargs, degree cap)
    "nsw": (build_nsw, dict(m=6, ef_construction=24), 12),
    "hnsw": (build_hnsw, dict(m=6, ef_construction=24), 12),
    "nsg": (build_nsg, dict(out_degree=10, search_l=24), 10),
    "cagra": (build_cagra, dict(graph_degree=12), 12),
}
#: name -> extra keyword sets frozen beside the plain build.
VARIANTS = {
    "nsw": (),
    "hnsw": (),
    "nsg": (),
    "cagra": (dict(use_nn_descent=True),),
}


def corpus(metric: str = "l2") -> np.ndarray:
    """The 800 × 24 gaussian corpus (unit rows under cosine)."""
    pts = np.random.default_rng(7).standard_normal((N, DIM)).astype(np.float32)
    if metric == "cosine":
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def build(name: str, points: np.ndarray, **kw):
    fn, base_kw, _cap = BUILDERS[name]
    if "build_backend" in inspect.signature(fn).parameters:
        kw["build_backend"] = "vectorized"
    return fn(points, **base_kw, **kw)


def digest(graph) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.indptr).tobytes())
    h.update(np.ascontiguousarray(graph.indices).tobytes())
    return h.hexdigest()


def cases():
    """``(key, name, metric, kwargs)`` for every frozen build."""
    for name in BUILDERS:
        for metric in METRICS:
            for seed in SEEDS:
                for extra in ({},) + VARIANTS[name]:
                    tag = "".join(f",{k}={v}" for k, v in extra.items())
                    yield (
                        f"{name}/{metric}/seed={seed}{tag}",
                        name,
                        metric,
                        dict(metric=metric, seed=seed, **extra),
                    )


def main() -> None:
    doc = {
        key: digest(build(name, corpus(metric), **kw))
        for key, name, metric, kw in cases()
    }
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} graph digests to {FIXTURE}")


if __name__ == "__main__":
    main()

"""Bit-exact parity: the vectorized lockstep engine vs the scalar oracle.

The lockstep engine must be a pure performance change: identical result
ids, byte-identical distances, and a trace block column-equal to the
oracle's traces through ``TraceBlock.from_traces`` (the cost model prices
blocks, so block equality implies identical serving numbers).
Covered here: all four mini corpora x both graph families x greedy and
beam-extend maintenance at one CTA and at four, plus a ragged batch
(B=17 > slots) and the system-level ``search_all`` entry points.  A batch
of one is the same row as in any batch (``test_batch_invariance.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GANNSSystem
from repro.core.pipeline import ALGASSystem
from repro.data import load_dataset
from repro.graphs import build_cagra, build_nsw
from repro.gpusim.trace import QueryTrace, TraceBlock
from repro.search import BeamConfig, batched_multi_cta_search

from .oracles import assert_same_search_all, make_entries, scalar_search_all
from .reference import intra_cta_search, multi_cta_search

DATASETS = ["sift1m-mini", "gist1m-mini", "glove200-mini", "nytimes-mini"]
BEAMS = {"greedy": None, "beam": BeamConfig(offset_beam=8, beam_width=4)}


@pytest.fixture(scope="module", params=DATASETS)
def pds(request):
    return load_dataset(request.param, n=1200, n_queries=17, gt_k=8, seed=5)


@pytest.fixture(scope="module", params=["cagra", "nsw"])
def pgraph(request, pds):
    if request.param == "cagra":
        return build_cagra(pds.base, graph_degree=10, metric=pds.metric)
    return build_nsw(pds.base, m=6, metric=pds.metric)


def assert_same_batch(scalars, batch, dim, k):
    """Per-query oracle results vs one lockstep batch: ids and distances
    bit for bit, traces as one column-equal block."""
    assert len(batch) == len(scalars)
    for s, ids, dists in zip(scalars, batch.ids, batch.dists):
        assert np.array_equal(s.ids, ids)
        assert np.asarray(s.dists).tobytes() == np.asarray(dists).tobytes()
    oracle = TraceBlock.from_traces([s.trace for s in scalars], dim=dim, k=k)
    assert oracle == batch.traces


@pytest.mark.parametrize("beam_key,n_ctas", [
    *(pytest.param(b, 4, id=b) for b in BEAMS),
    *(pytest.param(b, 1, id=f"{b}-1cta") for b in BEAMS),
])
def test_multi_cta_parity(pds, pgraph, beam_key, n_ctas):
    """One CTA against ``intra_cta_search``, four against the round-robin
    ``multi_cta_search``: results, trace blocks, each query's row-object
    trace view and the per-CTA lists the merge consumed (at one CTA, the
    result itself: a one-list merge is the identity)."""
    beam = BEAMS[beam_key]
    rng = np.random.default_rng(7)
    n = pds.base.shape[0]
    entries = [make_entries(n, n_ctas, 2, rng) for _ in range(len(pds.queries))]
    batch = batched_multi_cta_search(
        pds.base, pgraph, pds.queries, 8, 64, n_ctas,
        metric=pds.metric, beam=beam, entries=entries,
    )
    if n_ctas == 1:
        scalars = [
            intra_cta_search(pds.base, pgraph, q, 8, 64, entries[i][0],
                             metric=pds.metric, beam=beam)
            for i, q in enumerate(pds.queries)
        ]
    else:
        scalars = [
            multi_cta_search(
                pds.base, pgraph, q, 8, 64, n_ctas,
                metric=pds.metric, beam=beam, entries=entries[i],
            )
            for i, q in enumerate(pds.queries)
        ]
    assert_same_batch(scalars, batch, pds.base.shape[1], 8)
    for i, scalar in enumerate(scalars):
        trace, per_cta = scalar.trace, scalar.extra.get("per_cta")
        if n_ctas == 1:
            trace = QueryTrace(ctas=[trace], dim=pds.base.shape[1], k=8)
            per_cta = [(scalar.ids, scalar.dists)]
        assert batch[i].trace == trace
        for (ia, da), (ib, db) in zip(per_cta, batch[i].extra["per_cta"],
                                      strict=True):
            assert np.array_equal(ia, ib)
            assert np.asarray(da).tobytes() == np.asarray(db).tobytes()


def test_system_search_all_parity(pds, pgraph):
    """ALGAS system level: B=17 queries through batch_size=8 slots
    (B > slots), lockstep engine vs the scalar oracle, traces included."""
    system = ALGASSystem(pds.base, pgraph, k=8, l_total=64, batch_size=8,
                         metric=pds.metric, seed=3)
    assert system.n_parallel > 1
    assert_same_search_all(
        system.search_all(pds.queries), scalar_search_all(system, pds.queries)
    )


@pytest.mark.parametrize("seed", [1, 3])
def test_system_search_all_parity_single_cta(pds, pgraph, seed):
    """The single-CTA ``search_all`` path (``n_parallel=1``) at two system
    seeds: ALGAS's hashed half-list entries and GANNS's medoid entry."""
    for cls in (ALGASSystem, GANNSSystem):
        system = cls(pds.base, pgraph, k=8, l_total=64, batch_size=8,
                     metric=pds.metric, seed=seed, n_parallel=1)
        assert system.n_parallel == 1
        assert_same_search_all(
            system.search_all(pds.queries), scalar_search_all(system, pds.queries)
        )


def test_backend_knob_is_gone():
    """One engine on the serve path: no entry point takes ``backend=``
    (argument binding fails before any placeholder is touched)."""
    with pytest.raises(TypeError, match="backend"):
        ALGASSystem(None, None, backend="scalar")
    with pytest.raises(TypeError, match="backend"):
        intra_cta_search(None, None, None, 8, 32, 5, backend="scalar")
    with pytest.raises(TypeError, match="backend"):
        multi_cta_search(None, None, None, 8, 64, 4, backend="scalar")

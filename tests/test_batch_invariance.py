"""A query's answer is a function of the query, not of its batch.

Entry points are hashed from each query's bytes (``query_entries``), so a
query served in its batch, in a permuted batch or alone gets the same ids,
the same distance bytes and the same priced CTA costs.  With entries drawn
from one rng in batch order, 5 to 8 of these 64 rows moved.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import CAGRASystem
from repro.core import ALGASSystem
from repro.data import load_dataset
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.graphs import DynamicGraph, build_cagra

COST = CostModel(RTX_A6000)


@pytest.fixture(scope="module")
def sift():
    ds = load_dataset("sift1m-mini", n=3000, n_queries=64, gt_k=10, seed=0)
    return ds, build_cagra(ds.base, graph_degree=16, metric=ds.metric)


def _priced(block):
    """Every ``block_cost`` column, one row of ``n_ctas × fields`` per query."""
    cost = COST.block_cost(block)
    cols = [getattr(cost, f.name).astype(np.float64) for f in dataclasses.fields(cost)]
    return np.stack(cols, axis=1).reshape(len(block), -1)


def _assert_batch_invariant(search, queries):
    """``search(queries) -> (ids, dists, block)`` gives every row the same
    ids, distance bytes and priced costs whole, permuted and one by one."""
    def rows(qs):
        ids, dists, block = search(qs)
        return ids, dists, _priced(block)

    whole = rows(queries)
    perm = np.random.default_rng(0).permutation(len(queries))
    permuted = [a[np.argsort(perm)] for a in rows(queries[perm])]
    alone = [np.concatenate(a) for a in zip(*(rows(q[None, :]) for q in queries))]
    for other in (permuted, alone):
        assert np.array_equal(whole[0], other[0])
        assert whole[1].tobytes() == other[1].tobytes()
        assert whole[2].tobytes() == other[2].tobytes()


@pytest.mark.parametrize("precision", ["float32", "int8"])
@pytest.mark.parametrize("n_parallel", [1, 8])
@pytest.mark.parametrize("cls", [ALGASSystem, CAGRASystem], ids=["algas", "cagra"])
def test_system_rows_do_not_depend_on_the_batch(sift, cls, n_parallel, precision):
    ds, graph = sift
    system = cls(ds.base, graph, metric=ds.metric, k=10, l_total=64,
                 batch_size=8, n_parallel=n_parallel, precision=precision, seed=1)
    assert system.n_parallel == n_parallel
    _assert_batch_invariant(system.search_all, ds.queries)


def test_dynamic_rows_do_not_depend_on_the_batch(sift):
    ds, graph = sift
    dyn = DynamicGraph(ds.base, graph, metric=ds.metric)
    dyn.delete_batch(np.arange(0, 3000, 7))
    _assert_batch_invariant(
        lambda qs: dyn.search_batch(qs, 10, record_trace=True, n_ctas=8),
        ds.queries,
    )

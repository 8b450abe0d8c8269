"""Unit tests for graph diagnostics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.base import GraphIndex
from repro.graphs.utils import graph_stats, medoid, reachable_fraction

from .oracles import union_find_components


def ring(n):
    return GraphIndex.from_neighbor_lists(
        [np.array([(i + 1) % n]) for i in range(n)]
    )


def test_graph_stats_ring():
    st = graph_stats(ring(10))
    assert st.n_vertices == 10 and st.n_edges == 10
    assert st.min_degree == st.max_degree == 1
    assert st.n_weak_components == 1
    assert st.is_weakly_connected
    # strongly connected: every vertex reaches every other
    assert all(reachable_fraction(ring(10), v) == 1.0 for v in range(10))


def test_graph_stats_disconnected():
    g = GraphIndex.from_neighbor_lists([np.array([1]), np.array([0]), np.array([], dtype=np.int32)])
    st = graph_stats(g)
    assert st.n_weak_components == 2


def from_edges(n, edges) -> GraphIndex:
    """CSR over ``n`` vertices from ``(src, dst)`` pairs (duplicates and
    self-loops kept)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, edges[:, 0] + 1, 1)
    return GraphIndex(np.cumsum(indptr), edges[:, 1])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))))
@example((1, []))
@example((5, [(2, 2), (4, 4)]))
@example((5, [(0, 0), (3, 1), (1, 3)]))
def test_weak_components_equal_union_find(case):
    """Random directed multigraphs: isolated vertices, self-loops,
    duplicate edges and ``n = 1`` all occur (pinned by the examples)."""
    n, edges = case
    g = from_edges(n, edges)
    assert graph_stats(g).n_weak_components == union_find_components(g)


@pytest.mark.parametrize("shuffle", [False, True])
def test_weak_components_of_a_long_path(shuffle):
    """A 50 000-vertex directed path is one component, whether its ids run
    along the path or are shuffled; with its middle edge cut, two."""
    n = 50_000
    ids = np.random.default_rng(0).permutation(n) if shuffle else np.arange(n)
    edges = np.stack([ids[:-1], ids[1:]], axis=1)
    assert graph_stats(from_edges(n, edges)).n_weak_components == 1
    cut = np.delete(edges, n // 2, axis=0)
    g = from_edges(n, cut)
    assert graph_stats(g).n_weak_components == union_find_components(g) == 2


def test_reachable_fraction():
    # chain 0->1->2, plus isolated 3
    g = GraphIndex.from_neighbor_lists(
        [np.array([1]), np.array([2]), np.array([], np.int32), np.array([], np.int32)]
    )
    assert reachable_fraction(g, 0) == 0.75
    assert reachable_fraction(g, 3) == 0.25
    with pytest.raises(ValueError):
        reachable_fraction(g, 9)


def test_medoid_is_central():
    rng = np.random.default_rng(0)
    pts = np.vstack(
        [rng.normal(0, 0.1, (50, 4)), rng.normal(5, 0.1, (5, 4))]
    ).astype(np.float32)
    m = medoid(pts, sample=55, seed=0)
    # medoid should come from the big central cluster
    assert m < 50

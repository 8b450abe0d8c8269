"""Unit tests for NSW construction."""

import numpy as np
import pytest

from repro.data.synthetic import latent_mixture
from repro.graphs.nsw import build_nsw
from repro.graphs.utils import graph_stats


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(300, 24, intrinsic_dim=10, seed=0)


def test_incremental_nsw_structure(pts):
    g = build_nsw(pts, m=6, ef_construction=24, seed=0)
    assert g.kind == "nsw"
    assert g.n_vertices == 300
    st = graph_stats(g)
    assert st.max_degree <= 12  # 2*m cap
    assert st.n_weak_components == 1  # incremental insert keeps connectivity


def test_incremental_nsw_bidirectionalish(pts):
    g = build_nsw(pts, m=4, ef_construction=16, seed=1)
    # most edges have a reverse edge (trimming may drop some)
    fwd = {(u, int(v)) for u in range(g.n_vertices) for v in g.neighbors(u)}
    rev = sum((v, u) in fwd for u, v in fwd)
    assert rev / len(fwd) > 0.6


def test_nsw_searchable(pts):
    from repro.data.groundtruth import exact_knn, recall
    from repro.graphs.utils import medoid

    from .reference import intra_cta_search

    g = build_nsw(pts, m=8, seed=0)
    q = pts[:10]
    gt, _ = exact_knn(q, pts, 5)
    ep = medoid(pts)
    found = np.stack(
        [intra_cta_search(pts, g, qq, 5, 48, ep).ids[:5] for qq in q]
    )
    assert recall(found, gt) > 0.8  # queries are base points; easy


def test_nsw_validates():
    with pytest.raises(ValueError):
        build_nsw(np.empty((0, 4), np.float32))
    pts = latent_mixture(20, 4, intrinsic_dim=2, seed=0)
    with pytest.raises(ValueError):
        build_nsw(pts, m=0)
    with pytest.raises(ValueError):
        build_nsw(pts, m=8, ef_construction=4)
    with pytest.raises(ValueError, match="m=1"):
        build_nsw(pts, m=1, ef_construction=16)


def test_nsw_deterministic(pts):
    a = build_nsw(pts, m=4, seed=7)
    b = build_nsw(pts, m=4, seed=7)
    assert np.array_equal(a.indices, b.indices)

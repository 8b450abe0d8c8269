"""Unit tests for NSG construction."""

import numpy as np
import pytest

from repro.data.groundtruth import exact_knn, recall
from repro.data.synthetic import latent_mixture
from repro.graphs.nsg import build_nsg
from repro.graphs.utils import graph_stats, medoid, reachable_fraction


@pytest.fixture(scope="module")
def pts():
    return latent_mixture(400, 24, intrinsic_dim=10, seed=13)


@pytest.fixture(scope="module")
def nsg(pts):
    return build_nsg(pts, out_degree=10, search_l=32, seed=0)


def test_structure(nsg, pts):
    assert nsg.kind == "nsg"
    st = graph_stats(nsg)
    assert st.max_degree <= 11  # out_degree + possible repair edge
    assert st.min_degree >= 1
    # NSG is much sparser than the kNN pool it was built from
    assert st.mean_degree < 11


def test_navigating_node_reaches_everything(nsg, pts):
    nav = medoid(pts)
    assert reachable_fraction(nsg, nav) == 1.0


def test_searchable_quality(nsg, pts):
    from .reference import intra_cta_search

    rng = np.random.default_rng(0)
    q = pts[:16] + rng.normal(0, 0.01, (16, pts.shape[1])).astype(np.float32)
    gt, _ = exact_knn(q, pts, 5)
    nav = medoid(pts)
    found = np.stack(
        [intra_cta_search(pts, nsg, qq, 5, 48, nav).ids[:5] for qq in q]
    )
    assert recall(found, gt) > 0.85


def test_occlusion_sparsifies(pts):
    """NSG keeps fewer edges than the kNN pool it selects from."""
    from repro.graphs.knn import exact_knn_graph

    knn = exact_knn_graph(pts, 20)
    nsg = build_nsg(pts, out_degree=10, knn_k=20, search_l=24, seed=0)
    assert nsg.n_edges < knn.n_edges


def test_validates(pts):
    with pytest.raises(ValueError):
        build_nsg(pts, out_degree=0)
    with pytest.raises(ValueError):
        build_nsg(pts[:5], out_degree=10)

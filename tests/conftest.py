"""Shared fixtures: a small cached dataset + graphs used across the suite,
and the hypothesis profile every suite runs under."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import load_dataset
from repro.graphs import build_cagra, build_nsw, medoid

# Every hypothesis suite draws the same examples on every run; test
# modules' ``@settings`` inherit the profile loaded here.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ds():
    """Small SIFT-like dataset (2k base, 48 queries, exact GT to 64)."""
    return load_dataset("sift1m-mini", n=2000, n_queries=48, gt_k=64, seed=11)


@pytest.fixture(scope="session")
def cos_ds():
    """Small cosine-metric dataset."""
    return load_dataset("glove200-mini", n=1500, n_queries=32, gt_k=64, seed=11)


@pytest.fixture(scope="session")
def graph(ds):
    return build_cagra(ds.base, graph_degree=12, metric=ds.metric)


@pytest.fixture(scope="session")
def nsw_graph(ds):
    return build_nsw(ds.base, m=8, metric=ds.metric)


@pytest.fixture(scope="session")
def entry(ds):
    return medoid(ds.base, ds.metric)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)

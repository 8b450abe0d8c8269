"""Unit tests for the empirical auto-tuner."""

import numpy as np
import pytest

from repro.core.tuning import autotune_algas


def test_meets_reachable_target(ds, graph):
    res = autotune_algas(
        ds.base, graph, ds.queries, ds.gt, target_recall=0.85,
        k=10, batch_size=8, metric=ds.metric, sample=24,
        l_grid=(32, 64, 128), parallel_grid=(2, 4), seed=1,
    )
    assert res.satisfied
    assert res.best.recall >= 0.85
    assert res.best.l_total in (32, 64, 128)
    assert len(res.trials) >= 2
    # best is the fastest trial among those meeting the target
    ok = [t for t in res.trials if t.recall >= 0.85]
    assert res.best.mean_latency_us == min(t.mean_latency_us for t in ok)


def test_unreachable_target_returns_best_effort(ds, graph):
    res = autotune_algas(
        ds.base, graph, ds.queries, ds.gt, target_recall=1.0,
        k=10, batch_size=8, metric=ds.metric, sample=16,
        l_grid=(16,), parallel_grid=(2,), seed=1,
    )
    # Either a lucky perfect sample or an unsatisfied best-effort result.
    assert res.best is not None
    if not res.satisfied:
        assert res.best.recall == max(t.recall for t in res.trials)


def test_validates(ds, graph):
    with pytest.raises(ValueError):
        autotune_algas(ds.base, graph, ds.queries, ds.gt, target_recall=0.0)
    with pytest.raises(ValueError):
        autotune_algas(ds.base, graph, ds.queries, ds.gt[:, :4], k=10)


def test_errors_other_than_infeasible_configs_propagate(ds, graph):
    """Only grid points that cannot run are skipped; bad inputs fail."""
    kw = dict(k=10, batch_size=8, sample=8, l_grid=(32,), parallel_grid=(2,))
    bad = ds.base.copy()
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        autotune_algas(bad, graph, ds.queries, ds.gt, metric=ds.metric, **kw)
    with pytest.raises(ValueError, match="unknown metric"):
        autotune_algas(ds.base, graph, ds.queries, ds.gt, metric="nope", **kw)


def test_infeasible_grid_points_are_skipped(ds, graph):
    """``l_total < k`` and an unreachable ``N_parallel`` are not trials."""
    res = autotune_algas(
        ds.base, graph, ds.queries, ds.gt, target_recall=0.5, k=10,
        batch_size=8, metric=ds.metric, sample=8, l_grid=(8, 64),
        parallel_grid=(2, 4096), seed=1,
    )
    assert res.trials and all(t.l_total == 64 for t in res.trials)
    assert all(t.n_parallel <= 8 for t in res.trials)

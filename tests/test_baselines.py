"""Unit tests for the baseline systems (CAGRA, GANNS, IVF)."""

import numpy as np
import pytest

from repro.baselines import CAGRASystem, GANNSSystem, IVFSystem
from repro.data.groundtruth import recall


def test_cagra_system(ds, graph):
    sys_ = CAGRASystem(ds.base, graph, metric=ds.metric, k=10, l_total=64,
                       batch_size=8, max_parallel=4)
    rep = sys_.serve(ds.queries)
    assert recall(rep.ids, ds.gt_at(10)) > 0.8
    # static batches: queries in the same batch share a completion time
    completes = sorted({round(r.complete_us, 6) for r in rep.serve.records})
    assert len(completes) == len(rep.serve.records) // 8
    assert sys_.beam is None  # CAGRA has no beam extend


def test_ganns_system_single_cta(ds, nsw_graph):
    sys_ = GANNSSystem(ds.base, nsw_graph, metric=ds.metric, k=10, l_total=64,
                       batch_size=8)
    assert sys_.n_parallel == 1
    rep = sys_.serve(ds.queries)
    assert recall(rep.ids, ds.gt_at(10)) > 0.6
    assert all(t.n_ctas == 1 for t in rep.traces)


def test_ivf_system(ds):
    sys_ = IVFSystem(ds.base, nlist=32, nprobe=8, metric=ds.metric, k=10,
                     batch_size=8)
    rep = sys_.serve(ds.queries)
    assert recall(rep.ids, ds.gt_at(10)) > 0.8
    assert rep.mean_latency_us > 0


def test_ivf_nprobe_tradeoff(ds):
    lo = IVFSystem(ds.base, nlist=32, nprobe=1, metric=ds.metric, k=10, batch_size=8)
    hi = IVFSystem(ds.base, nlist=32, nprobe=16, metric=ds.metric, k=10, batch_size=8)
    rep_lo, rep_hi = lo.serve(ds.queries), hi.serve(ds.queries)
    rec_lo = recall(rep_lo.ids, ds.gt_at(10))
    rec_hi = recall(rep_hi.ids, ds.gt_at(10))
    assert rec_hi > rec_lo
    assert rep_hi.mean_latency_us > rep_lo.mean_latency_us


def test_ivf_validation(ds):
    with pytest.raises(ValueError):
        IVFSystem(ds.base, k=0)

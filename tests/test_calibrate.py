"""Unit tests for cost-model calibration.

Identifiability requires measurements with *diverse op mixes* (different
dimensions, degrees, sort sizes) — the calibration protocol a real user
would follow across datasets.  Synthetic traces give that diversity
deterministically.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.gpusim.calibrate import _FIELDS, calibrate_cost_params, op_count_features
from repro.gpusim.costmodel import CostModel, CostParams
from repro.gpusim.device import RTX_A6000
from repro.gpusim.trace import CTATrace, StepRecord, TraceBlock


def diverse_traces(n=24, seed=0, precision="float32"):
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(n):
        dim = int(rng.choice([16, 64, 128, 256, 960]))
        deg = int(rng.choice([8, 16, 32, 64]))
        L = int(rng.choice([16, 64, 256]))
        steps = []
        for _ in range(int(rng.integers(5, 40))):
            new = int(rng.integers(0, deg + 1))
            steps.append(
                StepRecord(
                    select_offset=0,
                    n_expanded=int(rng.integers(1, 5)),
                    n_neighbors_fetched=deg,
                    n_visited_checks=deg,
                    n_new_points=new,
                    dim=dim,
                    sort_size=L + new if new else 0,
                    cand_list_len=L,
                    did_sort=new > 0,
                    precision=precision,
                )
            )
        traces.append(CTATrace(steps=steps, result_len=8))
    return traces


TRUTH = CostParams(fma_iter_cycles=11.0, shuffle_cycles=3.0,
                   cmpex_cycles=21.0, scan_cycles=6.0, bitmap_cycles=40.0)


def test_recovers_known_constants():
    cm = CostModel(RTX_A6000, TRUTH)
    traces = diverse_traces()
    measured = [cm.cta_duration_us(t) for t in traces]
    res = calibrate_cost_params(RTX_A6000, traces, measured, base_params=TRUTH)
    assert res.r_squared > 0.999
    assert res.residual_us_rms < 0.5
    assert res.params.fma_iter_cycles == pytest.approx(11.0, rel=0.05)
    assert res.params.cmpex_cycles == pytest.approx(21.0, rel=0.05)
    assert res.params.bitmap_cycles == pytest.approx(40.0, rel=0.1)


def test_noisy_measurements_still_close():
    cm = CostModel(RTX_A6000, TRUTH)
    traces = diverse_traces(n=40, seed=1)
    rng = np.random.default_rng(0)
    measured = [cm.cta_duration_us(t) * rng.uniform(0.97, 1.03) for t in traces]
    res = calibrate_cost_params(RTX_A6000, traces, measured, base_params=TRUTH)
    assert res.r_squared > 0.95
    assert res.params.fma_iter_cycles == pytest.approx(11.0, rel=0.25)


def test_real_trace_predictive_fit(ds, graph, entry):
    """On homogeneous real traces the coefficients may not be identifiable,
    but the fit must still *predict* the measurements (low residual)."""
    from .reference import intra_cta_search

    cm = CostModel(RTX_A6000, TRUTH)
    traces = [
        intra_cta_search(ds.base, graph, ds.queries[i], 8, 24 + 8 * (i % 5),
                         entry, metric=ds.metric).trace
        for i in range(12)
    ]
    measured = [cm.cta_duration_us(t) for t in traces]
    res = calibrate_cost_params(RTX_A6000, traces, measured)
    assert res.r_squared > 0.99
    assert res.residual_us_rms < 1.0


def test_features_positive(ds, graph, entry):
    from .reference import intra_cta_search

    for i in range(3):
        t = intra_cta_search(ds.base, graph, ds.queries[i], 8, 32, entry,
                             metric=ds.metric).trace
        f = op_count_features(t)
        assert f.shape == (5,)
        assert (f > 0).all()


@pytest.mark.parametrize("precision", ["float32", "int8"])
@pytest.mark.parametrize("threads", [32, 64])
def test_features_times_constants_reproduce_cta_cost(precision, threads):
    """features · fitted constants + the non-fitted remainder == cta_cost:
    the features are the pricer's own group counts, for every precision
    (int8 packs MACs per FMA group)."""
    params = replace(TRUTH, int8_mac_pack=2.0)
    traces = diverse_traces(n=10, seed=2, precision=precision)
    block = TraceBlock.from_traces(traces)
    feats = op_count_features(block, threads, params)
    assert feats.shape == (10, 5)
    assert np.array_equal(feats[3], op_count_features(traces[3], threads, params))
    constants = np.array([getattr(params, f) for f in _FIELDS])
    zeroed = replace(params, **dict.fromkeys(_FIELDS, 0.0))
    rest = CostModel(RTX_A6000, zeroed, threads).cta_durations_us(block)
    want = CostModel(RTX_A6000, params, threads).cta_durations_us(block)
    got = RTX_A6000.cycles_to_us(feats @ constants) + rest
    assert got == pytest.approx(want, rel=1e-12)
    if precision == "int8":  # int8_mac_pack=2: about half the float32 groups
        f32 = op_count_features(diverse_traces(10, 2), threads, params)
        assert feats[:, 0].sum() < 0.6 * f32[:, 0].sum()


def test_validates():
    traces = diverse_traces(n=6)
    with pytest.raises(ValueError):
        calibrate_cost_params(RTX_A6000, traces, [1.0])
    with pytest.raises(ValueError):
        calibrate_cost_params(RTX_A6000, traces[:3], [1.0, 2.0, 3.0])

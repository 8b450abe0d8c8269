"""Unit tests for the cost model."""

import math

import pytest

from repro.gpusim.costmodel import (
    CostModel,
    CostParams,
    bitonic_stage_count,
)
from repro.gpusim.device import RTX_A6000
from repro.gpusim.trace import CTATrace, StepRecord

from .oracles import scalar_step_cost


def mkstep(**kw):
    base = dict(
        select_offset=0, n_expanded=1, n_neighbors_fetched=16,
        n_visited_checks=16, n_new_points=8, dim=128, sort_size=72,
        cand_list_len=64, did_sort=True,
    )
    base.update(kw)
    return StepRecord(**base)


@pytest.fixture(scope="module")
def cm():
    return CostModel(RTX_A6000)


def test_bitonic_stage_count():
    assert bitonic_stage_count(1) == 0
    assert bitonic_stage_count(2) == 1
    assert bitonic_stage_count(8) == 6  # k=3 -> 3*4/2
    assert bitonic_stage_count(9) == 10  # padded to 16, k=4


def test_step_cost_positive_components(cm):
    c = scalar_step_cost(cm, mkstep())
    assert c.select_us > 0 and c.fetch_us > 0 and c.filter_us > 0
    assert c.distance_us > 0 and c.sort_us > 0
    assert c.total_us == pytest.approx(
        c.select_us + c.fetch_us + c.filter_us + c.distance_us + c.sort_us
    )


def test_no_sort_step_has_zero_sort_cost(cm):
    c = scalar_step_cost(cm, mkstep(did_sort=False, sort_size=0))
    assert c.sort_us == 0.0


def test_distance_scales_with_dim(cm):
    lo = scalar_step_cost(cm, mkstep(dim=64)).distance_us
    hi = scalar_step_cost(cm, mkstep(dim=960)).distance_us
    assert hi > 5 * lo


def test_sort_scales_with_list_size(cm):
    small = scalar_step_cost(cm, mkstep(sort_size=40, cand_list_len=32)).sort_us
    large = scalar_step_cost(cm, mkstep(sort_size=264, cand_list_len=256)).sort_us
    assert large > 2 * small


def test_cta_cost_additive(cm):
    t = CTATrace(steps=[mkstep(), mkstep(did_sort=False, sort_size=0)], result_len=10)
    agg = cm.cta_cost(t)
    s0, s1 = scalar_step_cost(cm, t.steps[0]), scalar_step_cost(cm, t.steps[1])
    assert agg.sort_us == pytest.approx(s0.sort_us + s1.sort_us)
    assert agg.total_us == pytest.approx(
        s0.total_us + s1.total_us + agg.result_write_us
    )
    assert 0 < agg.sort_fraction < 1


def test_cpu_merge_cost_monotonic(cm):
    assert cm.cpu_merge_us(8, 16) > cm.cpu_merge_us(2, 16) > 0
    assert cm.cpu_merge_us(1, 16) < cm.cpu_merge_us(2, 16)


def test_gpu_merge_includes_launch(cm):
    assert cm.gpu_merge_us(8, 16) > RTX_A6000.kernel_launch_us
    assert cm.gpu_merge_us(1, 16) == 0.0


def test_query_gpu_time_is_max_over_ctas(cm):
    from repro.gpusim.trace import QueryTrace

    a = CTATrace(steps=[mkstep()])
    b = CTATrace(steps=[mkstep(), mkstep()])
    qt = QueryTrace(ctas=[a, b], dim=128, k=10)
    assert cm.query_gpu_time_us(qt) == pytest.approx(cm.cta_duration_us(b))


def test_sort_fraction_calibration_band(cm):
    # Fig. 3 operating point: ~20-34 % sorting on a 128-dim dataset.
    t = CTATrace(steps=[mkstep() for _ in range(60)], result_len=16)
    frac = cm.cta_cost(t).sort_fraction
    assert 0.15 < frac < 0.45


def test_threads_default_to_warp():
    cm = CostModel(RTX_A6000)
    assert cm.threads == RTX_A6000.warp_size
    with pytest.raises(ValueError):
        CostModel(RTX_A6000, threads_per_cta=0)


def test_custom_params_change_costs():
    slow = CostModel(RTX_A6000, CostParams(cmpex_cycles=100.0))
    fast = CostModel(RTX_A6000, CostParams(cmpex_cycles=1.0))
    s = mkstep()
    assert scalar_step_cost(slow, s).sort_us > 10 * scalar_step_cost(fast, s).sort_us

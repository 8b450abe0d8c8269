"""Unit tests for global-memory planning / UM oversubscription."""

import pytest

from repro.gpusim.device import RTX_A6000
from repro.gpusim.memory import GIB, footprint_bytes, plan_memory


def test_footprint_components():
    f = footprint_bytes(n_vectors=1000, dim=128, n_edges=32_000)
    assert f == 1000 * 128 * 4 + 32_000 * 4 + 1001 * 8
    f2 = footprint_bytes(1000, 128, 32_000, n_slots=16, n_parallel=8, k=16)
    assert f2 == f + 16 * 125 + 16 * 8 * 16 * 8


def test_footprint_validates():
    with pytest.raises(ValueError):
        footprint_bytes(0, 128, 0)


def test_fits_at_small_scale():
    plan = plan_memory(RTX_A6000, 1_000_000, 128, 32_000_000, n_slots=16,
                       n_parallel=8, k=16)
    assert plan.fits
    assert plan.effective_bw_gbps == RTX_A6000.global_mem_bw_gbps
    assert plan.oversubscription < 1.0


def test_oversubscription_derates_bandwidth():
    # 2x oversubscribed: half the accesses fault over PCIe.
    plan = plan_memory(
        RTX_A6000, 100_000, 128, 0, capacity_bytes=100_000 * 128 * 2
    )
    assert not plan.fits
    assert 0.4 < plan.spill_fraction < 0.6
    assert plan.effective_bw_gbps < 0.1 * RTX_A6000.global_mem_bw_gbps
    assert plan.oversubscription > 1.9


def test_mild_spill_still_costly():
    total = footprint_bytes(100_000, 128, 0)
    plan = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=int(total / 1.1))
    assert 0.05 < plan.spill_fraction < 0.15
    # ~10% spill loses the majority of bandwidth (the UM cliff)
    assert plan.effective_bw_gbps < 0.5 * RTX_A6000.global_mem_bw_gbps


def test_validates_capacity():
    with pytest.raises(ValueError):
        plan_memory(RTX_A6000, 10, 4, 0, capacity_bytes=0)


def test_derated_device_integration():
    plan = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=100_000 * 128 * 2)
    dev = RTX_A6000.with_overrides(global_mem_bw_gbps=plan.effective_bw_gbps)
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.trace import CTATrace, StepRecord

    trace = CTATrace(steps=[StepRecord(0, 1, 16, 16, 8, 128, 72, 64, True)])
    slow = CostModel(dev).cta_cost(trace)
    fast = CostModel(RTX_A6000).cta_cost(trace)
    assert slow.distance_us > fast.distance_us
    assert slow.fetch_us > fast.fetch_us


def test_exactly_full_fits():
    # total == capacity is the boundary: fits, zero spill, no derating.
    total = footprint_bytes(50_000, 64, 1_000_000, n_slots=8, n_parallel=4, k=8)
    plan = plan_memory(RTX_A6000, 50_000, 64, 1_000_000, n_slots=8,
                       n_parallel=4, k=8, capacity_bytes=total)
    assert plan.fits
    assert plan.spill_fraction == 0.0
    assert plan.oversubscription == 1.0
    assert plan.effective_bw_gbps == RTX_A6000.global_mem_bw_gbps
    # one byte less and the plan tips over
    plan2 = plan_memory(RTX_A6000, 50_000, 64, 1_000_000, n_slots=8,
                        n_parallel=4, k=8, capacity_bytes=total - 1)
    assert not plan2.fits
    assert plan2.spill_fraction > 0.0


def test_capacity_override_vs_default():
    # The default capacity is the 48 GiB A6000; an explicit override is
    # honoured verbatim, not clamped to the device.
    default_plan = plan_memory(RTX_A6000, 10_000, 32, 0)
    assert default_plan.capacity_bytes == 48 * GIB
    small = plan_memory(RTX_A6000, 10_000, 32, 0, capacity_bytes=10_000 * 32)
    assert small.capacity_bytes == 10_000 * 32
    assert not small.fits


def test_um_bandwidth_override():
    cap = footprint_bytes(100_000, 128, 0) // 2
    slow = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=cap,
                       um_fault_bw_gbps=1.0)
    fast = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=cap,
                       um_fault_bw_gbps=50.0)
    assert slow.spill_fraction == fast.spill_fraction
    assert slow.effective_bw_gbps < fast.effective_bw_gbps
    # the default UM path is half of PCIe bandwidth
    default = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=cap)
    explicit = plan_memory(RTX_A6000, 100_000, 128, 0, capacity_bytes=cap,
                           um_fault_bw_gbps=RTX_A6000.pcie_bw_gbps * 0.5)
    assert default.effective_bw_gbps == explicit.effective_bw_gbps


def test_derating_monotonic_in_spill():
    total = footprint_bytes(200_000, 128, 0)
    last_bw, last_lat = float("inf"), 0.0
    for oversub in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0):
        plan = plan_memory(RTX_A6000, 200_000, 128, 0,
                           capacity_bytes=max(1, int(total / oversub)))
        assert plan.effective_bw_gbps <= last_bw
        assert plan.effective_latency_cycles >= last_lat
        last_bw = plan.effective_bw_gbps
        last_lat = plan.effective_latency_cycles
    # deep oversubscription approaches the UM floor
    assert last_bw < 0.05 * RTX_A6000.global_mem_bw_gbps
    assert last_lat > 3000

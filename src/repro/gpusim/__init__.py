"""Simulated-GPU substrate: device model, cost model, event engine, PCIe."""

from .calibrate import CalibrationResult, calibrate_cost_params, op_count_features
from .costmodel import (
    BlockCost,
    CostModel,
    CostParams,
    CTACost,
    StepCost,
    bitonic_stage_count,
)
from .device import A100_SXM, DEVICE_PRESETS, RTX_3080, RTX_A6000, DeviceProperties
from .engine import BlockSchedule, Simulator, list_schedule
from .kernel import KernelLaunch, launch_blocks, partitioned_launch_makespan
from .memory import MemoryPlan, footprint_bytes, plan_memory
from .occupancy import (
    SearchMemoryLayout,
    block_shared_mem_bytes,
    can_cohabit,
    max_resident_blocks,
)
from .pcie import PCIeLink, PCIeStats
from .trace import CTATrace, QueryTrace, StepRecord, TraceBlock

__all__ = [
    "CalibrationResult",
    "calibrate_cost_params",
    "op_count_features",
    "BlockCost",
    "CostModel",
    "CostParams",
    "CTACost",
    "StepCost",
    "bitonic_stage_count",
    "A100_SXM",
    "DEVICE_PRESETS",
    "RTX_3080",
    "RTX_A6000",
    "DeviceProperties",
    "BlockSchedule",
    "Simulator",
    "list_schedule",
    "KernelLaunch",
    "launch_blocks",
    "partitioned_launch_makespan",
    "MemoryPlan",
    "footprint_bytes",
    "plan_memory",
    "SearchMemoryLayout",
    "block_shared_mem_bytes",
    "can_cohabit",
    "max_resident_blocks",
    "PCIeLink",
    "PCIeStats",
    "CTATrace",
    "QueryTrace",
    "StepRecord",
    "TraceBlock",
]

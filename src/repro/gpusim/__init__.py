"""Simulated-GPU substrate: device model, cost model, event engine, PCIe."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".calibrate": ("CalibrationResult", "calibrate_cost_params", "op_count_features"),
    ".costmodel": (
        "BlockCost",
        "CostModel",
        "CostParams",
        "CTACost",
        "bitonic_stage_count",
    ),
    ".device": ("A100_SXM", "DEVICE_PRESETS", "RTX_3080", "RTX_A6000", "DeviceProperties"),
    ".engine": ("BlockSchedule", "Simulator", "list_schedule"),
    ".kernel": ("KernelLaunch", "launch_blocks", "partitioned_launch_makespan"),
    ".memory": ("MemoryPlan", "footprint_bytes", "plan_memory"),
    ".occupancy": (
        "SearchMemoryLayout",
        "block_shared_mem_bytes",
        "can_cohabit",
        "max_resident_blocks",
    ),
    ".pcie": ("PCIeLink", "PCIeStats"),
    ".trace": ("CTATrace", "QueryTrace", "StepRecord", "TraceBlock"),
})

"""ALGAS core: slots, dynamic batching, tuning, merge, state sync, pipeline."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cluster": ("ReplicatedServer", "ShardedServer"),
    ".dynamic_batcher": ("DynamicBatchConfig", "DynamicBatchEngine"),
    ".host": ("HostLoadEstimate", "estimate_host_load", "partition_slots"),
    ".merge": ("HostMerger", "MergeOutcome"),
    ".persistent_kernel": ("PersistentKernel",),
    ".pipeline": ("ALGASSystem", "BaseGraphSystem", "SystemReport"),
    ".query_manager": ("ManagedQuery", "QueryManager"),
    ".serving": ("QueryJob", "QueryRecord", "ServeConfig", "ServeReport", "as_serve_config"),
    ".slots": ("Slot", "SlotState", "StateTransitionError"),
    ".state_sync": ("STATE_WORD_BYTES", "StateChannel"),
    ".static_batcher": ("StaticBatchConfig", "StaticBatchEngine"),
    ".tuning": (
        "AutoTuneResult",
        "Trial",
        "TuningResult",
        "autotune_algas",
        "plan_layout",
        "reserved_cache_bytes",
        "tune",
    ),
})

"""ALGAS core: slots, dynamic batching, tuning, merge, state sync, pipeline."""

from .cluster import ReplicatedServer, ShardedServer
from .dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
from .host import HostLoadEstimate, estimate_host_load, partition_slots
from .merge import HostMerger, MergeOutcome
from .persistent_kernel import PersistentKernel
from .pipeline import ALGASSystem, BaseGraphSystem, SystemReport
from .query_manager import ManagedQuery, QueryManager
from .serving import QueryJob, QueryRecord, ServeConfig, ServeReport, as_serve_config
from .slots import Slot, SlotState, StateTransitionError
from .state_sync import STATE_WORD_BYTES, StateChannel
from .static_batcher import StaticBatchConfig, StaticBatchEngine
from .tuning import (
    AutoTuneResult,
    Trial,
    TuningResult,
    autotune_algas,
    plan_layout,
    reserved_cache_bytes,
    tune,
)

__all__ = [
    "AutoTuneResult",
    "Trial",
    "autotune_algas",
    "ReplicatedServer",
    "ShardedServer",
    "DynamicBatchConfig",
    "DynamicBatchEngine",
    "HostLoadEstimate",
    "estimate_host_load",
    "partition_slots",
    "HostMerger",
    "MergeOutcome",
    "PersistentKernel",
    "ALGASSystem",
    "BaseGraphSystem",
    "SystemReport",
    "ManagedQuery",
    "QueryManager",
    "QueryJob",
    "QueryRecord",
    "ServeConfig",
    "ServeReport",
    "as_serve_config",
    "Slot",
    "SlotState",
    "StateTransitionError",
    "STATE_WORD_BYTES",
    "StateChannel",
    "StaticBatchConfig",
    "StaticBatchEngine",
    "TuningResult",
    "plan_layout",
    "reserved_cache_bytes",
    "tune",
]

"""The DAM core: CSPT contexts, time-bridging channels, and executors.

This package implements the paper's primary contribution — see DESIGN.md
section 5 for the precise cycle semantics shared by both executors.
"""

from .channel import (
    Channel,
    ChannelStats,
    Receiver,
    Sender,
    make_channel,
    peak_simulated_occupancy,
)
from .context import Context, ContextGenerator, FunctionContext
from .errors import (
    ChannelClosed,
    CheckpointError,
    DamError,
    DeadlockError,
    GraphConstructionError,
    NotCheckpointable,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from .faults import (
    ContextFault,
    FaultInjected,
    FaultPlan,
    ShuttleStall,
    WorkerKill,
)
from .ops import (
    AdvanceTo,
    Dequeue,
    Enqueue,
    FusedOps,
    IncrCycles,
    Op,
    Peek,
    ViewTime,
    WaitUntil,
)
from .program import Program, ProgramBuilder
from .time import INFINITY, Time, TimeCell
from ..obs.events import TraceEvent

# Executor machinery is imported lazily (PEP 562): building a program
# must not pay for runtimes it never selects, and the registry can
# reject an unknown executor name without importing any of them.
_LAZY_EXECUTOR = {
    "Executor",
    "RunSummary",
    "RunConfig",
    "register_executor",
    "registered_names",
    "resolve_executor",
    "executor_available",
    "SchedulingPolicy",
    "FifoPolicy",
    "FairPolicy",
    "make_policy",
    "SequentialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "PartitionPlan",
    "ClusterSpec",
    "channel_weights",
    "pins_from_placement",
    "pins_from_summary",
    "plan_partition",
    "plan_clusters",
}

# Checkpoint machinery is likewise lazy: most programs never snapshot.
_LAZY_CHECKPOINT = {
    "Checkpoint",
    "CheckpointTimer",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_EXECUTOR:
        value = getattr(import_module(".executor", __name__), name)
    elif name in _LAZY_CHECKPOINT:
        value = getattr(import_module(".checkpoint", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _LAZY_EXECUTOR | _LAZY_CHECKPOINT)


__all__ = [
    "Channel",
    "ChannelStats",
    "Sender",
    "Receiver",
    "make_channel",
    "peak_simulated_occupancy",
    "Context",
    "ContextGenerator",
    "FunctionContext",
    "ChannelClosed",
    "Checkpoint",
    "CheckpointError",
    "CheckpointTimer",
    "DamError",
    "DeadlockError",
    "GraphConstructionError",
    "NotCheckpointable",
    "RunTimeoutError",
    "SimulationError",
    "WorkerCrashError",
    "ContextFault",
    "FaultInjected",
    "FaultPlan",
    "ShuttleStall",
    "WorkerKill",
    "RunSummary",
    "RunConfig",
    "SequentialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "register_executor",
    "registered_names",
    "resolve_executor",
    "PartitionPlan",
    "ClusterSpec",
    "channel_weights",
    "pins_from_placement",
    "pins_from_summary",
    "plan_partition",
    "plan_clusters",
    "FifoPolicy",
    "FairPolicy",
    "Op",
    "Enqueue",
    "Dequeue",
    "FusedOps",
    "Peek",
    "IncrCycles",
    "AdvanceTo",
    "ViewTime",
    "WaitUntil",
    "Program",
    "ProgramBuilder",
    "INFINITY",
    "Time",
    "TimeCell",
    "TraceEvent",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
]

"""repro — a Python reproduction of the Dataflow Abstract Machine (DAM).

DAM (ISCA 2024) is a parallel simulator framework for dataflow systems
built on three ideas: a CSP-with-time (CSPT) programming interface,
asynchronous distributed time with pairwise synchronization, and
time-bridging channels.  This package reimplements the framework and every
substrate its evaluation depends on — see DESIGN.md for the inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import Context, IncrCycles, ProgramBuilder

    class Doubler(Context):
        def __init__(self, inp, out):
            super().__init__()
            self.inp, self.out = inp, out
            self.register(inp, out)

        def run(self):
            while True:
                value = yield self.inp.dequeue()
                yield IncrCycles(1)
                yield self.out.enqueue(2 * value)

See ``examples/quickstart.py`` for a complete runnable program.
"""

from .core import (
    INFINITY,
    AdvanceTo,
    Channel,
    ChannelClosed,
    CheckpointError,
    Context,
    ContextFault,
    DamError,
    DeadlockError,
    Dequeue,
    Enqueue,
    FaultInjected,
    FaultPlan,
    FunctionContext,
    GraphConstructionError,
    IncrCycles,
    NotCheckpointable,
    Peek,
    Program,
    ProgramBuilder,
    Receiver,
    RunTimeoutError,
    Sender,
    ShuttleStall,
    SimulationError,
    Time,
    TimeCell,
    ViewTime,
    WaitUntil,
    WorkerCrashError,
    WorkerKill,
    make_channel,
    peak_simulated_occupancy,
)
from .obs import (
    MetricsRegistry,
    Observability,
    StallReport,
    TraceCollector,
    TraceEvent,
)

# Executor machinery resolves lazily through repro.core (PEP 562): a bare
# ``import repro`` must not import any runtime, so ``Program.run`` can
# report an unknown executor — or pick one — without the import cost.
# The spec/serve layer resolves lazily too (it pulls in numpy and the
# kernel-graph modules).  ``repro.api`` documents which of these names
# are the stable public surface.
_LAZY_EXECUTOR = {
    "Checkpoint",
    "CheckpointTimer",
    "latest_checkpoint",
    "load_checkpoint",
    "Executor",
    "RunSummary",
    "RunConfig",
    "register_executor",
    "registered_names",
    "resolve_executor",
    "FairPolicy",
    "FifoPolicy",
    "SequentialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "PartitionPlan",
    "ClusterSpec",
    "channel_weights",
    "plan_partition",
    "plan_clusters",
}


_LAZY_SPEC = {
    "ProgramSpec",
    "SpecError",
    "build_spec",
    "encode_tensor",
    "decode_tensor",
    "register_graph",
    "registered_graphs",
}

_LAZY_MODULES = {"api", "serve", "sam"}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_EXECUTOR:
        value = getattr(import_module(".core", __name__), name)
    elif name in _LAZY_SPEC:
        value = getattr(import_module(".sam.spec", __name__), name)
    elif name in _LAZY_MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _LAZY_EXECUTOR | _LAZY_SPEC | _LAZY_MODULES)


__version__ = "1.0.0"

__all__ = [
    "INFINITY",
    "AdvanceTo",
    "Channel",
    "ChannelClosed",
    "Checkpoint",
    "CheckpointError",
    "CheckpointTimer",
    "Context",
    "ContextFault",
    "DamError",
    "DeadlockError",
    "Dequeue",
    "Enqueue",
    "FairPolicy",
    "FaultInjected",
    "FaultPlan",
    "FifoPolicy",
    "FunctionContext",
    "GraphConstructionError",
    "IncrCycles",
    "MetricsRegistry",
    "NotCheckpointable",
    "Observability",
    "PartitionPlan",
    "Peek",
    "ProcessExecutor",
    "Program",
    "ProgramBuilder",
    "ProgramSpec",
    "Receiver",
    "RunConfig",
    "RunSummary",
    "RunTimeoutError",
    "Sender",
    "SequentialExecutor",
    "ShuttleStall",
    "SimulationError",
    "SpecError",
    "StallReport",
    "ThreadedExecutor",
    "WorkerCrashError",
    "WorkerKill",
    "register_executor",
    "registered_names",
    "resolve_executor",
    "Time",
    "TimeCell",
    "TraceCollector",
    "TraceEvent",
    "ViewTime",
    "WaitUntil",
    "api",
    "build_spec",
    "channel_weights",
    "decode_tensor",
    "encode_tensor",
    "latest_checkpoint",
    "load_checkpoint",
    "make_channel",
    "peak_simulated_occupancy",
    "plan_partition",
    "register_graph",
    "registered_graphs",
    "serve",
    "__version__",
]

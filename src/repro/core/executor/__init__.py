"""Execution runtimes for DAM programs.

Three executors share identical simulated semantics:

* :class:`SequentialExecutor` — deterministic cooperative scheduler,
  single-threaded, with pluggable scheduling policies (Table I study).
* :class:`ThreadedExecutor` — one OS thread per context, SVA/SVP-style
  pairwise synchronization (the paper's runtime); truly parallel on a
  free-threaded CPython build, where ``"free-threaded"`` names it too.
* :class:`ProcessExecutor` — graph partitions across forked worker
  processes, cut channels bridged by shared-memory lanes and
  rebalanced by work stealing; the route around the GIL to the paper's
  multi-core wall-clock speedups.

Selection goes through the registry (:func:`resolve_executor`,
``Program.run(executor="auto")``); every name in this package is imported
lazily (PEP 562), so resolving one executor never pays for the others.
"""

from importlib import import_module

_LAZY = {
    "Executor": ".base",
    "RunSummary": ".base",
    "RunConfig": ".config",
    "register_executor": ".registry",
    "registered_names": ".registry",
    "resolve_executor": ".registry",
    "executor_available": ".registry",
    "SchedulingPolicy": ".policies",
    "FifoPolicy": ".policies",
    "FairPolicy": ".policies",
    "make_policy": ".policies",
    "SequentialExecutor": ".sequential",
    "ThreadedExecutor": ".threaded",
    "ProcessExecutor": ".partitioned",
    "PartitionPlan": ".partition",
    "ClusterSpec": ".partition",
    "channel_weights": ".partition",
    "pins_from_placement": ".partition",
    "pins_from_summary": ".partition",
    "plan_partition": ".partition",
    "plan_clusters": ".partition",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module_name, __name__), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

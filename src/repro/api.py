"""The stable public API of ``repro`` — one import surface, one contract.

Everything re-exported here is **public and stable**: wire formats
round-trip across versions, constructors keep their signatures, and
behavior changes arrive with deprecation windows.  Code that sticks to
``repro.api`` (or the same names on the top-level ``repro`` package)
will not break between releases.

The stable surface, by layer:

* **Authoring** — :class:`Context`, :class:`FunctionContext`,
  :class:`ProgramBuilder`, :class:`Program`, the simulation commands
  (:class:`Enqueue`, :class:`Dequeue`, :class:`Peek`,
  :class:`IncrCycles`, ...), and :func:`make_channel`.
* **Execution** — :class:`RunConfig` (with its strict
  ``to_dict``/``from_dict`` wire format), :class:`RunSummary` (idem),
  ``Program.run(executor, config=...)`` over three runtimes
  (``"sequential"``, ``"threaded"``, ``"process"``, or ``"auto"``), and
  the executor registry (:func:`register_executor`,
  :func:`registered_names`, :func:`resolve_executor`).
* **Specs** — :class:`ProgramSpec` / :func:`build_spec` /
  :func:`register_graph`: declarative, JSON-serializable run requests
  over the named kernel-graph registry, plus
  :func:`encode_tensor`/:func:`decode_tensor` for payloads.
* **Serving** — the :mod:`repro.serve` package (re-exported whole):
  :class:`~repro.serve.SimServer`, :class:`~repro.serve.ServeClient`,
  :class:`~repro.serve.ServeConfig`, :class:`~repro.serve.TenantPolicy`,
  and the typed admission errors.
* **Observability** — :class:`Observability`, :class:`MetricsRegistry`,
  :class:`TraceCollector`, :class:`StallReport`.
* **Errors** — the :class:`DamError` hierarchy
  (:class:`DeadlockError`, :class:`RunTimeoutError`,
  :class:`WorkerCrashError`, :class:`SpecError`,
  :class:`AdmissionError`, :class:`TenantBudgetError`, ...).

Everything else — module paths under ``repro.core.executor.*``, channel
internals, partition planners, shared-memory rings — is **internal**:
importable for experimentation, liable to move without notice.  If an
internal helper earns real external use, promote it here first.
"""

from __future__ import annotations

from . import serve
from .core import (
    Channel,
    ChannelClosed,
    Context,
    DamError,
    DeadlockError,
    Dequeue,
    Enqueue,
    FaultPlan,
    FunctionContext,
    GraphConstructionError,
    IncrCycles,
    Peek,
    Program,
    ProgramBuilder,
    Receiver,
    RunConfig,
    RunSummary,
    RunTimeoutError,
    Sender,
    SimulationError,
    WorkerCrashError,
    make_channel,
    register_executor,
    registered_names,
    resolve_executor,
)
from .obs import MetricsRegistry, Observability, StallReport, TraceCollector
from .sam.spec import (
    ProgramSpec,
    SpecError,
    build_spec,
    decode_tensor,
    encode_tensor,
    register_graph,
    registered_graphs,
)
from .serve import (
    AdmissionError,
    ServeClient,
    ServeConfig,
    ServeError,
    SimServer,
    TenantBudgetError,
    TenantPolicy,
)

__all__ = [
    # authoring
    "Channel",
    "ChannelClosed",
    "Context",
    "Dequeue",
    "Enqueue",
    "FunctionContext",
    "IncrCycles",
    "Peek",
    "Program",
    "ProgramBuilder",
    "Receiver",
    "Sender",
    "make_channel",
    # execution
    "FaultPlan",
    "RunConfig",
    "RunSummary",
    "register_executor",
    "registered_names",
    "resolve_executor",
    # specs
    "ProgramSpec",
    "build_spec",
    "decode_tensor",
    "encode_tensor",
    "register_graph",
    "registered_graphs",
    # serving
    "AdmissionError",
    "ServeClient",
    "ServeConfig",
    "SimServer",
    "TenantBudgetError",
    "TenantPolicy",
    "serve",
    # observability
    "MetricsRegistry",
    "Observability",
    "StallReport",
    "TraceCollector",
    # errors
    "DamError",
    "DeadlockError",
    "GraphConstructionError",
    "RunTimeoutError",
    "ServeError",
    "SimulationError",
    "SpecError",
    "WorkerCrashError",
]

"""Typed run configuration shared by every executor.

:class:`RunConfig` replaces the historical ad-hoc ``**kwargs`` surface of
:meth:`repro.core.program.Program.run`: one frozen dataclass carries every
tunable any executor understands, and each executor receives exactly the
subset its constructor declares (:meth:`RunConfig.kwargs_for` filters by
signature).  That subsetting is what makes one config portable across
runtimes — ``RunConfig(workers=4)`` is honored by the process executor
and silently irrelevant to the sequential one, so the same config can be
handed to ``Program.run(executor="auto")`` without knowing which runtime
will win.

Fields default to ``None`` (= "use the executor's own default"), so a
config only ever *overrides* what the caller explicitly set.  There is no
untyped side door: a knob that is not a field here is a constructor
keyword, set by building the executor and handing the instance to
``Program.run`` (DESIGN.md §12 lists every field and who reads it).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass
from typing import Any, Optional

from .partition import normalize_mode

#: Fields interpreted by :meth:`Program.run` itself, never forwarded to an
#: executor constructor (the retry ladder re-runs whole executions and the
#: tag stamps the finished summary; no executor could honour either from
#: the inside).
_RUN_ONLY_FIELDS = frozenset({"fallback", "tag"})

#: Fields whose values are process-local by construction and therefore can
#: never travel on the wire: live objects (``obs``, ``policy`` instances,
#: ``faults`` plans, ``metrics_sink`` callables) and ``pins``, which is
#: keyed by ``id(context)`` — rebuild it on the receiving side from a
#: name-keyed placement via
#: :func:`~repro.core.executor.partition.pins_from_placement`.
_LOCAL_ONLY_FIELDS = frozenset({"obs", "pins", "faults", "metrics_sink"})


def _check_wire(name: str, value: Any) -> Any:
    """Verify ``value`` is built purely of JSON-representable pieces.

    Containers are copied (so mutating the wire dict never aliases the
    frozen config); anything else — class instances, callables, numpy
    scalars — raises :class:`TypeError` naming the field.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_wire(name, item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"RunConfig.{name} has non-string dict key {key!r}; "
                    "wire dicts must be string-keyed"
                )
        return {key: _check_wire(name, item) for key, item in value.items()}
    raise TypeError(
        f"RunConfig.{name}={value!r} is not wire-serializable; only "
        "JSON-representable values travel (see RunConfig.to_dict)"
    )


@dataclass(frozen=True)
class RunConfig:
    """Executor-independent run configuration.

    Parameters
    ----------
    workers:
        Worker processes (process executor).
    policy:
        Scheduling policy name or instance for cooperative schedulers.
    fast_path:
        Inert: the sequential executor runs every op through its runner
        either way.  Kept only because a frozen benchmark suite spells
        ``RunConfig(fast_path=False)``; due for deletion.
    obs:
        An :class:`repro.obs.Observability` collecting trace/metrics.
    steal:
        Allow idle workers to claim (steal) cold clusters planned for
        other workers (process executor; default on).
    timeslice:
        Forced timeslice for worker-side cooperative scheduling.
    weights / pins:
        Partitioner inputs (see :func:`~repro.core.executor.partition.plan_partition`).
    deadline_s:
        Wall-clock budget for the run.  Every executor aborts cleanly into
        :class:`~repro.core.errors.RunTimeoutError` (carrying a partial
        summary and a stall report) once the budget is exhausted.
    fallback:
        Retry ladder for non-deterministic host failures (worker crash,
        deadline overrun — never ``DeadlockError``/``SimulationError``).
        A name, a sequence of names, or ``True`` for the default ladder
        ``process → threaded → sequential`` below the current executor.
        Consumed by :meth:`Program.run`, never by executors.
    faults:
        A :class:`~repro.core.faults.FaultPlan` of injected failures for
        chaos testing.
    metrics_interval_s:
        Enable live metric streaming: every this many wall-clock seconds
        a read-only sampler snapshots context clocks, op counters, and
        the metrics registry (see :class:`repro.obs.stream.MetricsSampler`).
        Sampling never perturbs simulated results.
    metrics_sink:
        Where streamed samples go: a callable invoked per sample, or a
        path appended to as JSON lines.  Samples are always also kept on
        ``obs.metrics_samples`` when an ``obs`` is attached.
    superblocks:
        The threaded executor's hosting, decided by this alone (DESIGN.md
        §15): ``"off"``/``False`` is one thread per context, the paper's
        runtime (and refuses ``checkpoint_path`` or a restored program
        with ``NotCheckpointable``); ``"on"``/``True``/``"auto"``
        (default) runs the whole program on the sequential executor's
        cooperative engine on the calling thread, starting no thread.
        Other executors ignore it; any other value is a
        :class:`ValueError` here.  Results, traces and profiles are
        bit-identical either way.
    checkpoint_interval_s:
        Enable checkpointing (DESIGN.md §17): at each quiescent cut at
        least this many wall-clock seconds after the previous capture,
        the executor snapshots the full program state into
        ``checkpoint_path``.  ``0`` captures at *every* quiescent
        opportunity (deterministic cadence; what the bit-identity tests
        use).  Requires every context to honour the resumable-state
        contract — a run over an opaque-generator context refuses up
        front with :class:`~repro.core.errors.NotCheckpointable`.
    checkpoint_path:
        Directory receiving the checkpoint epoch files (created if
        missing).  With ``fallback=`` set, a crashed or timed-out
        attempt resumes from the latest valid checkpoint here instead of
        restarting from scratch (``RunSummary.attempts`` records
        ``resumed_from``).
    tag:
        An opaque identity stamped onto the finished
        :class:`~repro.core.executor.base.RunSummary` (``summary.tag``)
        and every retry-ladder attempt record.  Never interpreted by any
        executor — it exists so a caller multiplexing many runs (the
        ``repro.serve`` front end tags ``tenant/request_id``) can
        attribute summaries in logs and metrics.
    """

    workers: Optional[int] = None
    policy: Any = None
    fast_path: Optional[bool] = None
    obs: Any = None
    steal: Optional[bool] = None
    timeslice: Optional[int] = None
    weights: Optional[dict] = None
    pins: Optional[dict] = None
    deadline_s: Optional[float] = None
    fallback: Any = None
    faults: Any = None
    metrics_interval_s: Optional[float] = None
    metrics_sink: Any = None
    superblocks: Any = None
    checkpoint_interval_s: Optional[float] = None
    checkpoint_path: Optional[str] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        # Validated here, not in a constructor: only the threaded
        # executors declare the keyword, and a bad value must not be
        # dropped silently by kwargs_for on the others.
        normalize_mode(self.superblocks)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied; an unknown key is a
        :class:`TypeError`."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Wire format.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The wire form of this config: a JSON-clean dict of every field
        the caller set (``None`` fields — "use the executor default" —
        are omitted, so the dict round-trips through :meth:`from_dict`
        to an equal config).

        Only declarative values travel: a config holding a live object
        (an ``obs`` bundle, a policy *instance*, a fault plan, a metrics
        sink callable) or the ``id()``-keyed ``pins`` mapping raises
        :class:`TypeError` naming the offending field — those are
        process-local by construction and must be re-attached on the
        receiving side.
        """
        out: dict[str, Any] = {}
        for name in sorted(_CONFIG_FIELDS):
            value = getattr(self, name)
            if value is None:
                continue
            if name in _LOCAL_ONLY_FIELDS:
                raise TypeError(
                    f"RunConfig.{name} is process-local and cannot be "
                    f"serialized (got {value!r}); attach it after "
                    "from_dict() on the receiving side"
                )
            out[name] = _check_wire(name, value)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """Rebuild a config from its :meth:`to_dict` wire form, strictly.

        Unknown keys raise :class:`ValueError` listing every valid field
        (mirroring the executor registry's unknown-name error) — a typo
        in a serialized request must fail loudly at the API boundary.
        So do the process-local fields :meth:`to_dict` refuses to emit:
        a wire dict is outside input, and ``metrics_sink`` may name a
        file to append to.
        """
        if not isinstance(data, dict):
            raise TypeError(f"RunConfig.from_dict wants a dict, got {data!r}")
        valid = _CONFIG_FIELDS - _LOCAL_ONLY_FIELDS
        unknown = sorted(set(data) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        local = sorted(set(data) & _LOCAL_ONLY_FIELDS)
        if local:
            raise ValueError(
                f"RunConfig field(s) {', '.join(map(repr, local))} are "
                "process-local and never travel on the wire; attach them "
                "after from_dict() on the receiving side"
            )
        return cls(**data)

    def kwargs_for(self, executor_cls: type) -> dict[str, Any]:
        """The constructor kwargs of this config that ``executor_cls``
        accepts.

        Fields left at ``None`` are omitted (the executor default wins);
        set fields the constructor does not declare are dropped — that is
        the portability contract.
        """
        return {
            name: value
            for name in _forwarded_fields(executor_cls)
            if (value := getattr(self, name)) is not None
        }


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


@functools.lru_cache(maxsize=None)
def _forwarded_fields(executor_cls: type) -> frozenset:
    """The config fields ``executor_cls.__init__`` declares (all of them
    under ``**kwargs``).  Cached because ``inspect.signature`` costs
    50-90 us on every ``Program.run``; keyed by the class object, so a
    newly registered class — same name or not — is looked up afresh."""
    params = inspect.signature(executor_cls.__init__).parameters
    forwarded = _CONFIG_FIELDS - _RUN_ONLY_FIELDS
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return forwarded
    return forwarded & params.keys()

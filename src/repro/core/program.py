"""Program construction: wiring contexts and channels into a simulation.

:class:`ProgramBuilder` is the user-facing entry point::

    builder = ProgramBuilder()
    snd, rcv = builder.bounded(8, latency=2)
    builder.add(Producer(snd))
    builder.add(Consumer(rcv))
    program = builder.build()        # validates the graph
    summary = program.run()          # sequential executor by default

Validation enforces the paper's static-connection property: every channel
has exactly one sending context and one receiving context, and every added
context's handles point back at channels created by this builder (or
free-standing channels the caller made with :func:`make_channel`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .channel import Channel, Receiver, Sender, make_channel
from .context import Context
from .errors import GraphConstructionError
from .time import Time, TimeCell

if TYPE_CHECKING:  # pragma: no cover
    from .executor.base import RunSummary

#: The default retry ladder for ``RunConfig(fallback=True)``: each entry is
#: strictly "safer" than the one before it (fewer moving parts, no shared
#: memory, finally no concurrency at all).  A failing executor retries on
#: the entries *after* its own position.
FALLBACK_LADDER = ("process", "threaded", "sequential")


class Program:
    """A validated, ready-to-run dataflow program."""

    def __init__(
        self,
        contexts: Sequence[Context],
        channels: Sequence[Channel],
        partition_pins: Optional[dict[int, int]] = None,
    ):
        self.contexts = list(contexts)
        self.channels = list(channels)
        #: Manual placement for the process executor: ``id(context)`` →
        #: worker index (see :meth:`ProgramBuilder.pin`).
        self.partition_pins: dict[int, int] = dict(partition_pins or {})
        #: Each checkpointable context's declared state as built (None
        #: for the others): what :meth:`reset` puts back.
        self._built_state = [
            ctx.snapshot() if ctx.checkpointable else None for ctx in self.contexts
        ]

    def run(
        self,
        executor="sequential",
        *,
        config=None,
        obs=None,
    ) -> "RunSummary":
        """Execute the program and return a :class:`RunSummary`.

        ``executor`` selects the runtime by registered name —
        ``"sequential"`` (deterministic cooperative scheduler; default),
        ``"threaded"`` (``"free-threaded"`` is an alias), ``"process"``
        — or ``"auto"``, which picks the best of the three runtimes the
        host supports (process > threaded > sequential).  An
        :class:`~repro.core.executor.base.Executor` instance or subclass
        is also accepted; an instance carries its own settings, so
        passing ``config`` or ``obs`` with one is a :class:`TypeError`.  Resolution goes through the registry
        (:mod:`repro.core.executor.registry`), so an unknown name raises
        a :class:`ValueError` listing the registered names without
        importing any executor module.

        ``config`` is a :class:`~repro.core.executor.config.RunConfig` —
        the one way to configure a run; each executor receives exactly
        the fields its constructor declares, which is what makes one
        config portable across runtimes (and across ``"auto"``'s
        choices).  ``obs`` attaches an :class:`~repro.obs.Observability`
        and is merged into the config.  ``RunConfig(tag=...)`` is
        stamped onto the returned summary (``summary.tag``) — and onto
        the partial summary of a :class:`RunTimeoutError` — so callers
        multiplexing many runs can attribute each one.
        """
        from .errors import RunTimeoutError
        from .executor.base import Executor
        from .executor.config import RunConfig
        from .executor.registry import resolve_executor

        if isinstance(executor, Executor):
            if config is not None or obs is not None:
                raise TypeError(
                    "run() got an executor instance and configuration; "
                    "construct the executor with its settings instead"
                )
            return executor.execute(self)

        if config is None:
            config = RunConfig()
        if obs is not None:
            config = config.replace(obs=obs)

        executor_cls = resolve_executor(executor)
        if not config.fallback:
            try:
                summary = executor_cls.from_config(config).execute(self)
            except RunTimeoutError as exc:
                if exc.summary is not None and config.tag is not None:
                    exc.summary.tag = config.tag
                raise
            if config.tag is not None:
                summary.tag = config.tag
            return summary
        return self._run_with_fallback(executor_cls, config)

    # ------------------------------------------------------------------
    # Fault tolerance: the retry ladder and program reset.
    # ------------------------------------------------------------------

    def _run_with_fallback(self, executor_cls, config) -> "RunSummary":
        """Execute with the ``RunConfig(fallback=...)`` retry ladder.

        Only *infrastructure* failures are retried — a
        :class:`~repro.core.errors.WorkerCrashError` (a worker process
        died) or :class:`~repro.core.errors.RunTimeoutError` (the
        ``deadline_s`` wall-clock budget expired).  Simulation outcomes
        (:class:`DeadlockError`, :class:`SimulationError`) are properties
        of the *program*, identical on every executor, so retrying them
        would only repeat the failure; they propagate immediately.

        Between attempts the program is :meth:`reset` and the attached
        observability is wiped (``trace.clear()``, stale stall/crash
        reports dropped) so the retry is indistinguishable from a fresh
        run; the ``run_retries`` counter is incremented *before* each
        retry so the successful attempt's metrics snapshot includes it.
        Every attempt — including the successful one — is recorded in
        ``RunSummary.attempts``; if the whole ladder fails, the record is
        attached to the raised exception as ``exc.attempts``.

        With ``RunConfig(checkpoint_path=...)`` set, a retry does better
        than starting over: the latest *valid* checkpoint in the
        directory is restored after the reset (state, clocks, channels —
        and the metrics registry, into the attached ``obs``), so the
        next attempt resumes mid-run.  Each attempt record carries
        ``resumed_from`` (``{"path", "epoch"}``, or ``None`` for a
        from-scratch attempt), and when the next executor is the process
        executor the checkpoint's observed post-steal placement seeds
        the partitioner via pins folded onto the new worker count (see
        :func:`~repro.core.executor.partition.pins_from_placement`).
        """
        from time import perf_counter

        from .errors import RunTimeoutError, WorkerCrashError
        from .executor.registry import resolve_executor

        specs: list = [executor_cls]
        fallback = config.fallback
        if fallback is True:
            name = getattr(executor_cls, "name", "")
            if name in FALLBACK_LADDER:
                chain = FALLBACK_LADDER[FALLBACK_LADDER.index(name) + 1 :]
            else:
                chain = FALLBACK_LADDER
            specs.extend(chain or ("sequential",))
        elif isinstance(fallback, str):
            specs.append(fallback)
        else:
            specs.extend(fallback)

        obs = config.obs
        attempts: list[dict] = []
        #: What the attempt about to run was restored from (None = scratch).
        resumed_from: Optional[dict] = (
            {"path": None, "epoch": getattr(self, "_resume_epoch", 0)}
            if getattr(self, "_resume_records", None) is not None
            else None
        )
        for position, spec in enumerate(specs):
            cls = resolve_executor(spec)
            instance = cls.from_config(config)
            started = perf_counter()
            try:
                summary = instance.execute(self)
            except (RunTimeoutError, WorkerCrashError) as exc:
                attempts.append(
                    {
                        "executor": instance.name,
                        "outcome": (
                            "timeout"
                            if isinstance(exc, RunTimeoutError)
                            else "crashed"
                        ),
                        "error": repr(exc),
                        "seconds": perf_counter() - started,
                        "tag": config.tag,
                        "resumed_from": resumed_from,
                    }
                )
                if position == len(specs) - 1:
                    exc.attempts = attempts
                    summary = getattr(exc, "summary", None)
                    if summary is not None and config.tag is not None:
                        summary.tag = config.tag
                    raise
                self.reset()
                if obs is not None:
                    if obs.trace is not None:
                        obs.trace.clear()
                    obs.stall_report = None
                    obs.crash_report = None
                resumed_from = None
                if config.checkpoint_path is not None:
                    resumed_from, config = self._restore_latest_checkpoint(
                        config, obs
                    )
                if obs is not None and obs.metrics is not None:
                    obs.metrics.counter("run_retries").inc()
            else:
                attempts.append(
                    {
                        "executor": instance.name,
                        "outcome": "ok",
                        "error": None,
                        "seconds": perf_counter() - started,
                        "tag": config.tag,
                        "resumed_from": resumed_from,
                    }
                )
                summary.attempts = attempts
                if config.tag is not None:
                    summary.tag = config.tag
                return summary
        raise AssertionError("unreachable: ladder neither returned nor raised")

    def _restore_latest_checkpoint(self, config, obs):
        """Restore the newest valid checkpoint for a ladder retry.

        Returns ``(resumed_from, config)``: the attempt annotation (or
        ``None`` when the directory holds no usable checkpoint — the
        retry then runs from scratch, exactly as before checkpointing
        existed) and the possibly-updated config.  The checkpoint's
        saved metrics registry is loaded into ``obs`` so counters
        continue from the cut, and when the caller configured an
        explicit worker count the observed placement is folded into
        ``config.pins`` for elastic repartitioning.
        """
        from .checkpoint import latest_checkpoint
        from .executor.partition import pins_from_placement

        checkpoint = latest_checkpoint(config.checkpoint_path, self)
        if checkpoint is None:
            return None, config
        checkpoint.restore_into(self)
        if (
            obs is not None
            and obs.metrics is not None
            and checkpoint.metrics is not None
        ):
            obs.metrics.load_state(checkpoint.metrics)
        if checkpoint.placement and config.workers:
            pins = pins_from_placement(
                self, checkpoint.placement, config.workers
            )
            if pins:
                config = config.replace(pins=pins)
        return {"path": checkpoint.path, "epoch": checkpoint.epoch}, config

    def reset(self) -> None:
        """Restore every context clock and channel to pre-run state.

        The graph (contexts, channels, wiring, pins) is untouched; only
        run state is cleared: context clocks return to zero, finish times
        are forgotten, a checkpointable context's ``checkpoint_attrs``
        (its whole inter-yield state, DESIGN.md §17) get their built
        values back, and every channel is drained back to its built
        state (see :meth:`Channel.reset`).  Called by the retry ladder
        between attempts; also useful for running the same program
        repeatedly in benchmarks.  Any other instance attribute a
        ``run()`` mutates is the context author's to reset.
        """
        for context, state in zip(self.contexts, self._built_state):
            context.time = TimeCell(0)
            context.finish_time = None
            if state is not None:
                context.restore(state)
        for channel in self.channels:
            channel.reset()
        # A pending checkpoint restore is run state too: reset means "from
        # scratch" (a later restore_into() re-arms both attributes).
        self.__dict__.pop("_resume_records", None)
        self.__dict__.pop("_resume_epoch", None)

    def context_count(self) -> int:
        return len(self.contexts)

    def channel_count(self) -> int:
        return len(self.channels)

    def __repr__(self) -> str:
        return (
            f"Program({len(self.contexts)} contexts, {len(self.channels)} channels)"
        )


class ProgramBuilder:
    """Accumulates contexts and channels, then validates into a Program."""

    def __init__(self) -> None:
        self._contexts: list[Context] = []
        self._channels: list[Channel] = []
        self._pins: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Channel factories.
    # ------------------------------------------------------------------

    def bounded(
        self,
        capacity: int,
        latency: Time = 1,
        resp_latency: Time = 1,
        name: str | None = None,
    ) -> tuple[Sender, Receiver]:
        """Create a bounded channel; returns its (Sender, Receiver) pair."""
        snd, rcv = make_channel(
            capacity=capacity, latency=latency, resp_latency=resp_latency, name=name
        )
        self._channels.append(snd.channel)
        return snd, rcv

    def unbounded(
        self,
        latency: Time = 1,
        name: str | None = None,
    ) -> tuple[Sender, Receiver]:
        """Create an unbounded channel (no backpressure simulation)."""
        snd, rcv = make_channel(capacity=None, latency=latency, name=name)
        self._channels.append(snd.channel)
        return snd, rcv

    def channel(
        self,
        capacity: Optional[int],
        latency: Time = 1,
        resp_latency: Time = 1,
        name: str | None = None,
    ) -> tuple[Sender, Receiver]:
        """Create a channel; ``capacity=None`` means unbounded."""
        snd, rcv = make_channel(
            capacity=capacity, latency=latency, resp_latency=resp_latency, name=name
        )
        self._channels.append(snd.channel)
        return snd, rcv

    def real(self, name: str | None = None) -> tuple[Sender, Receiver]:
        """Create a *real* channel: data without simulated-time coupling.

        Real channels are the Section IX mechanism: they let a context
        that runs far ahead in simulated time (e.g. a batching context)
        hand records to a lagging context (e.g. an inference context)
        without dragging the receiver's clock forward.  Timestamps, where
        needed, travel inside the payload.
        """
        snd, rcv = make_channel(capacity=None, name=name, real=True)
        self._channels.append(snd.channel)
        return snd, rcv

    # ------------------------------------------------------------------
    # Context registration.
    # ------------------------------------------------------------------

    def add(self, context: Context) -> Context:
        """Register a context; returns it for chaining."""
        self._contexts.append(context)
        return context

    def add_all(self, contexts: Iterable[Context]) -> None:
        for context in contexts:
            self.add(context)

    def pin(self, context: Context, worker: int) -> Context:
        """Pin ``context`` to a process-executor worker (manual placement).

        Overrides the automatic edge-weighted partitioning for this
        context: contexts pinned to the same index are guaranteed to run
        in the same worker process, contexts pinned to different indices
        in different ones.  Ignored by the sequential and threaded
        executors.  The index must be valid for the worker count the
        executor is eventually constructed with (validated at run time
        by :func:`~repro.core.executor.partition.plan_partition`).
        """
        if worker < 0:
            raise GraphConstructionError(
                f"cannot pin {context.name} to negative worker {worker}"
            )
        self._pins[id(context)] = worker
        return context

    # ------------------------------------------------------------------
    # Validation and build.
    # ------------------------------------------------------------------

    def build(self) -> Program:
        """Validate the graph and produce an executable :class:`Program`."""
        if not self._contexts:
            raise GraphConstructionError("program has no contexts")

        known_channels: dict[int, Channel] = {ch.id: ch for ch in self._channels}
        registered = {id(ctx) for ctx in self._contexts}
        if len(registered) != len(self._contexts):
            raise GraphConstructionError("a context was added more than once")

        # Channels referenced by contexts but created outside the builder
        # (via make_channel) are adopted here.
        for context in self._contexts:
            for handle in (*context.senders, *context.receivers):
                known_channels.setdefault(handle.channel.id, handle.channel)

        problems: list[str] = []
        for channel in known_channels.values():
            if channel.sender_owner is None:
                problems.append(f"{channel.name}: no sending context")
            elif id(channel.sender_owner) not in registered:
                problems.append(
                    f"{channel.name}: sender {channel.sender_owner.name} "
                    "was never added to the builder"
                )
            if channel.receiver_owner is None:
                problems.append(f"{channel.name}: no receiving context")
            elif id(channel.receiver_owner) not in registered:
                problems.append(
                    f"{channel.name}: receiver {channel.receiver_owner.name} "
                    "was never added to the builder"
                )
        if problems:
            raise GraphConstructionError(
                "invalid program graph: " + "; ".join(sorted(problems))
            )
        for ctx_id in self._pins:
            if ctx_id not in registered:
                raise GraphConstructionError(
                    "a pinned context was never added to the builder"
                )
        return Program(
            self._contexts,
            list(known_channels.values()),
            partition_pins=self._pins,
        )

"""Executor interface and run summaries."""

from __future__ import annotations

import dataclasses
import time as _wallclock
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ...obs.metrics import fold_channel_metrics, fold_context_metrics
from .. import checkpoint as _ckpt
from ..errors import RunTimeoutError
from ..time import Time

if TYPE_CHECKING:  # pragma: no cover
    from ..program import Program


@dataclass
class RunSummary:
    """The result of executing a program.

    Two kinds of field.  *Simulated* fields are a function of the
    program alone, the same on every executor, policy and worker count
    (the paper's exactness property): ``elapsed_cycles`` (the simulated
    makespan, the largest finite local time any context reached before
    finishing), ``context_times``, ``context_ops``, ``ops_executed``
    and ``profile``, and beside them the program's channel traffic and
    trace.
    :func:`repro.spec.simulated` is their one definition, the record
    every identity check compares.  *Host* fields describe the real run
    and vary with it: ``real_seconds``, ``executor``, ``policy``, the
    switch counters (``context_switches``, ``wakeups``,
    ``preemptions``), ``steals``, ``placement``, ``attempts``, ``tag``,
    and a channel's ``max_real_occupancy``.

    ``metrics`` is the :meth:`repro.obs.MetricsRegistry.snapshot` of the
    run when an :class:`~repro.obs.Observability` with metrics enabled
    was attached, else ``None``; it mixes the two kinds the same way.
    """

    elapsed_cycles: Time
    real_seconds: float
    context_times: dict[str, Time] = field(default_factory=dict)
    executor: str = ""
    policy: str = ""
    context_switches: int = 0
    wakeups: int = 0
    preemptions: int = 0
    ops_executed: int = 0
    #: Each context's ops executed, in program slot order (their sum is
    #: ``ops_executed``); a resumed run counts from the program's start.
    context_ops: list[int] = field(default_factory=list)
    #: Cold clusters claimed away from their planned worker (process
    #: executor work stealing); 0 for single-runtime executors.
    steals: int = 0
    #: Observed post-steal placement (process executor): the worker
    #: each program slot *actually* ran on — planned owners overridden
    #: by recorded migrations; ``None`` for single-runtime executors.
    #: Slot-keyed, so replicated pipelines whose contexts share names
    #: keep their own entries.
    #: :func:`~repro.core.executor.partition.pins_from_placement`
    #: replays it, and
    #: :func:`~repro.core.executor.partition.pins_from_summary`
    #: re-balances it by ``context_ops``.
    placement: Optional[list[int]] = None
    metrics: Optional[dict[str, Any]] = None
    #: The run's performance-attribution report
    #: (:meth:`repro.obs.profile.ProfileReport.to_dict`): critical path,
    #: blocked-time accounting, utilization epochs.  Attached when an
    #: :class:`~repro.obs.Observability` with tracing was on the run;
    #: derived from simulated state only, hence executor-independent.
    profile: Optional[dict[str, Any]] = None
    #: Retry-ladder history: one record per execution attempt when
    #: ``RunConfig(fallback=...)`` was set and at least one attempt failed
    #: with a host error (worker crash / deadline).  Each record carries
    #: ``executor``, ``outcome`` ("ok", "WorkerCrashError", ...), an
    #: ``error`` string for failures, ``seconds`` of wall clock spent,
    #: and the run's ``tag`` (below) so multiplexed logs stay attributable.
    attempts: list[dict[str, Any]] = field(default_factory=list)
    #: Opaque caller identity from ``RunConfig(tag=...)``, stamped by
    #: :meth:`Program.run` — never produced or interpreted by executors.
    #: The serve layer tags ``"tenant/request_id"`` so a summary pulled
    #: out of a log or metrics stream names the request that ran it.
    tag: Optional[str] = None

    # ------------------------------------------------------------------
    # Wire format (the serve layer streams summaries as JSON).
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-clean dict of the whole summary.

        ``metrics`` / ``profile`` / ``attempts`` are already plain dicts
        by construction (:meth:`MetricsRegistry.snapshot`,
        :meth:`ProfileReport.to_dict`); times are ints/floats.  The
        result round-trips exactly through :meth:`from_dict` — Python
        floats survive JSON bit-for-bit (shortest-round-trip repr).
        """
        return {
            "elapsed_cycles": self.elapsed_cycles,
            "real_seconds": self.real_seconds,
            "context_times": dict(self.context_times),
            "executor": self.executor,
            "policy": self.policy,
            "context_switches": self.context_switches,
            "wakeups": self.wakeups,
            "preemptions": self.preemptions,
            "ops_executed": self.ops_executed,
            "context_ops": list(self.context_ops),
            "steals": self.steals,
            "placement": list(self.placement) if self.placement else None,
            "metrics": self.metrics,
            "profile": self.profile,
            "attempts": list(self.attempts),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSummary":
        """Rebuild a summary from its :meth:`to_dict` form (client side)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunSummary field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        return cls(**data)

    def __str__(self) -> str:
        return (
            f"RunSummary(cycles={self.elapsed_cycles}, "
            f"real={self.real_seconds:.4f}s, executor={self.executor}, "
            f"switches={self.context_switches}, ops={self.ops_executed})"
        )

    @classmethod
    def merge(
        cls,
        program: "Program",
        payloads,
        trace=None,
    ) -> "RunSummary":
        """Fold per-worker result payloads back onto ``program`` and
        return a partially-filled summary.

        Each payload is the dict a worker harvests after its slice of the
        run: ``finish_times`` / ``context_attrs`` / ``context_stats`` and
        the ``trace`` buffers keyed by context slot, ``channel_stats``
        keyed by channel id, and scheduler ``counters``.
        The caller (any multi-runtime executor) completes the summary
        with ``executor`` / ``policy`` / ``real_seconds``, and folds
        ``context_stats`` into ``context_ops``, ``ops_executed`` and
        ``metrics``.

        Folding lives here so :mod:`~repro.core.executor.partitioned`
        and future distributed executors share one merge: finish times
        and picklable result attributes land on the original contexts,
        channel stats accumulate, trace buffers fold into the collector in
        slot order (so contexts sharing a name read as on every other
        executor), and the post-run channel closures mirror what an
        in-process run leaves behind.
        """
        contexts = program.contexts
        by_id = {ch.id: ch for ch in program.channels}
        summary = cls(elapsed_cycles=0, real_seconds=0.0)
        buffers: list[tuple[int, Any]] = []

        for payload in payloads:
            for slot, finish in payload.get("finish_times", {}).items():
                ctx = contexts[slot]
                ctx.finish_time = finish
                ctx.time.finish()
            for slot, attrs in payload.get("context_attrs", {}).items():
                ctx = contexts[slot]
                for key, value in attrs.items():
                    setattr(ctx, key, value)
            for channel_id, shipped in payload.get("channel_stats", {}).items():
                stats = by_id[channel_id].stats
                stats.enqueues += shipped["enqueues"]
                stats.dequeues += shipped["dequeues"]
                stats.peeks += shipped["peeks"]
                if shipped["max_real_occupancy"] > stats.max_real_occupancy:
                    stats.max_real_occupancy = shipped["max_real_occupancy"]
            buffers.extend(payload.get("trace", {}).items())
            counters = payload.get("counters", {})
            summary.context_switches += counters.get("context_switches", 0)
            summary.wakeups += counters.get("wakeups", 0)
            summary.preemptions += counters.get("preemptions", 0)
            summary.steals += counters.get("steals", 0)

        if trace is not None:  # a stable sort: one slot keeps payload order
            buffers.sort(key=lambda item: item[0])
            trace.fold(buf for _, buf in buffers)

        # Post-run channel parity with the in-process executors: every
        # finished endpoint has propagated its closure.
        for channel in program.channels:
            if channel.sender_owner.finish_time is not None:
                channel.close_sender()
            if channel.receiver_owner.finish_time is not None:
                channel.close_receiver()

        summary.elapsed_cycles = Executor._makespan(program)
        summary.context_times = {
            ctx.name: ctx.finish_time for ctx in program.contexts
        }
        return summary


class Executor:
    """Common interface: ``execute(program) -> RunSummary``."""

    name = "abstract"

    def execute(self, program: "Program") -> RunSummary:
        raise NotImplementedError

    @classmethod
    def from_config(cls, config=None, **overrides) -> "Executor":
        """Construct this executor from a :class:`RunConfig`.

        Only the config fields this executor's constructor declares are
        passed (see :meth:`RunConfig.kwargs_for`); ``overrides`` are
        applied on top of ``config`` first.
        """
        from .config import RunConfig

        if config is None:
            config = RunConfig()
        if overrides:
            config = config.replace(**overrides)
        return cls(**config.kwargs_for(cls))

    @staticmethod
    def _makespan(program: "Program") -> Time:
        """Largest finite finish time across contexts (0 if none)."""
        times = [
            ctx.finish_time
            for ctx in program.contexts
            if ctx.finish_time is not None
        ]
        return max(times, default=0)

    def _summary(
        self, program: "Program", start: float, policy: str, **counters
    ) -> RunSummary:
        """The run's summary as of now, for a run that began at wall
        clock ``start``: finish times where a context completed, current
        (lower-bound) clocks elsewhere — none after a run that finished,
        best effort for one being aborted."""
        return RunSummary(
            elapsed_cycles=self._makespan(program),
            real_seconds=_wallclock.perf_counter() - start,
            context_times={
                ctx.name: (
                    ctx.finish_time
                    if ctx.finish_time is not None
                    else ctx.time.now()
                )
                for ctx in program.contexts
            },
            executor=self.name,
            policy=policy,
            **counters,
        )

    # ------------------------------------------------------------------
    # Shared run lifecycle.  The executors that use these carry
    # ``deadline_s`` / ``faults`` / ``checkpoint_path`` /
    # ``checkpoint_interval_s`` (RunConfig fields) and ``_ckpt_timer``.
    # ------------------------------------------------------------------

    def _arm_deadline_and_faults(self, start: float) -> None:
        """Per-run preamble: the wall-clock deadline, and the context
        faults still pending, keyed by context name.  A trigger is
        consumed with ``pop``, so it fires once however many threads
        share the map."""
        self._deadline_at = (
            start + self.deadline_s if self.deadline_s is not None else None
        )
        faults = self.faults
        self._fault_map = (
            dict(faults.context_faults)
            if faults is not None and faults.context_faults
            else {}
        )

    def _arm_checkpoints(self, program: "Program", start_epoch: int):
        """The capture cadence of a checkpointed run (``None`` when
        ``checkpoint_path`` is unset): refuses a program that cannot be
        captured and sweeps what a killed run left in the directory."""
        if self.checkpoint_path is None:
            return None
        _ckpt.validate_checkpointable(program)
        _ckpt.clean_stale_temps(self.checkpoint_path)
        interval = self.checkpoint_interval_s
        return _ckpt.CheckpointTimer(
            0.0 if interval is None else interval, start_epoch=start_epoch
        )

    # ------------------------------------------------------------------
    # Shared observability hooks.
    # ------------------------------------------------------------------

    def _publish_stalls(self, stalls: list):
        """Wrap ``stalls`` in a :class:`~repro.obs.stall.StallReport`
        and leave it on the run's obs bundle, where a caller that catches
        the deadlock or timeout reads it."""
        from ...obs.stall import StallReport

        report = StallReport(stalls)
        if self.obs is not None:
            self.obs.stall_report = report
        return report

    def _report_supervisor_event(self, kind: str, error) -> None:
        """Feed a host failure — a worker ``"crash"`` or a run
        ``"timeout"`` — into the run's observability: a supervisor
        pseudo-buffer event in the trace, a crash report on the obs
        handle, and a counter in the metrics registry."""
        if self.obs is None:
            return
        if kind == "crash":
            self.obs.crash_report = error
        if self.obs.metrics is not None:
            name = "worker_crashes" if kind == "crash" else "run_timeouts"
            self.obs.metrics.counter(name).inc()
        if self.obs.trace is not None:
            payload: dict[str, Any] = {"error": str(error)}
            if kind == "crash":
                payload.update(
                    worker=error.worker,
                    exitcode=error.exitcode,
                    contexts=list(error.contexts),
                )
            self.obs.trace.buffer("<supervisor>").append(
                kind, None, 0, payload
            )

    def _timed_out(self, summary: RunSummary, report) -> RunTimeoutError:
        """The run's deadline abort, with its partial ``summary`` and
        its stall ``report``, reported as a supervisor event."""
        error = RunTimeoutError(
            self.deadline_s,
            executor=self.name,
            summary=summary,
            stall_report=report,
        )
        self._report_supervisor_event("timeout", error)
        return error

    def _attach_profile(self, summary: RunSummary, program: "Program", obs) -> None:
        """Compute the performance-attribution report from the run's trace
        and attach it to both ``summary.profile`` and the obs bundle.

        A no-op without tracing.  Embedded engines (process workers)
        never call it — the parent profiles the merged run, exactly like
        metrics folding (:meth:`_fold_metrics`).
        """
        if obs is None or getattr(obs, "trace", None) is None:
            return
        trace = obs.trace
        if not trace.buffers():
            return
        from ...obs.profile import channel_meta_for, profile_trace

        meta = channel_meta_for(program.channels)
        obs.channel_meta = meta
        report = profile_trace(trace, channel_meta=meta)
        obs.profile_report = report
        summary.profile = report.to_dict()

    def _fold_metrics(
        self, program: "Program", summary: RunSummary, ops, wall,
        parks=None, spins=None,
    ) -> Optional[dict]:
        """Set the finished run's ``context_ops`` and ``ops_executed``
        from ``ops``, fold the run into the obs registry and return its
        snapshot (``None`` without metrics): channel stats, then one set
        of per-context tallies per program slot — ``ops`` / ``wall`` /
        ``parks`` / ``spins`` are lists indexed by slot, a ``None`` wall
        is not recorded — then the summary's scheduling counters."""
        summary.context_ops, summary.ops_executed = list(ops), sum(ops)
        registry = self.obs.metrics if self.obs is not None else None
        if registry is None:
            return None
        fold_channel_metrics(registry, program.channels)
        for slot, ctx in enumerate(program.contexts):
            fold_context_metrics(
                registry,
                ctx.name,
                ops=ops[slot],
                finish_time=ctx.finish_time,
                wall_seconds=wall[slot],
                parks=parks[slot] if parks is not None else 0,
                spin_reads=spins[slot] if spins is not None else 0,
            )
        registry.counter("executor_context_switches").inc(summary.context_switches)
        registry.counter("executor_wakeups").inc(summary.wakeups)
        registry.counter("executor_preemptions").inc(summary.preemptions)
        registry.counter("executor_ops").inc(summary.ops_executed)
        return registry.snapshot()

    def _sampler_probe(self, contexts, counts, clock=None):
        """The read-only closure the live metrics sampler calls from its
        own thread: each context's clock by name (``clock(slot)``, or the
        context's own time cell), the run's progress counters
        (``counts()``, a dict), and — when enabled — the metrics
        registry.  Reads only; it cannot perturb the simulated run."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None
        contexts = list(contexts)

        def probe() -> dict:
            sample: dict = {
                "contexts": {
                    ctx.name: ctx.time.now() if clock is None else clock(slot)
                    for slot, ctx in enumerate(contexts)
                },
                **counts(),
            }
            if registry is not None:
                sample["metrics"] = registry.snapshot()
            return sample

        return probe

    @staticmethod
    def _start_sampler(interval_s, probe, sink):
        """Start a live :class:`~repro.obs.stream.MetricsSampler` when an
        interval was configured; returns the sampler or ``None``."""
        if not interval_s:
            return None
        from ...obs.stream import MetricsSampler

        return MetricsSampler(interval_s, probe, sink=sink).start()

    @staticmethod
    def _stop_sampler(sampler, obs) -> None:
        """Stop ``sampler`` (taking a final sample) and publish the
        samples on the obs bundle when one is attached."""
        if sampler is None:
            return
        samples = sampler.stop()
        if obs is not None:
            obs.metrics_samples = samples

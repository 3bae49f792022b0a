"""Executor-agnostic observability: tracing, metrics, and exporters.

DAM's pitch is that functionality and timing live together in each
context; this package makes the *timing* half inspectable on every
executor.  The pieces:

* :mod:`~repro.obs.events` — per-context lock-free row buffers;
* :mod:`~repro.obs.trace` — :class:`TraceCollector`, which owns the
  buffers and derives the merged ``(time, context, seq)`` view on demand,
  and :func:`occupancy_log`, a channel's elements read off the trace;
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges, and histograms folded into ``RunSummary.metrics``;
* :mod:`~repro.obs.export` — Chrome trace-event / Perfetto JSON and CSV;
* :mod:`~repro.obs.stall` — deadlock stall reports naming the blocking
  channel, both endpoint clocks, and the virtual-time gap between them;
* :mod:`~repro.obs.profile` — post-run critical-path analysis,
  blocked-time accounting, utilization epochs, and run diffing
  (``python -m repro.obs report/diff``);
* :mod:`~repro.obs.stream` — the live :class:`MetricsSampler` behind
  ``RunConfig(metrics_interval_s=...)``.

:class:`Observability` bundles them for the common case::

    obs = Observability(capture_payloads=True)
    summary = program.run(executor="threaded", obs=obs)
    obs.write_chrome_trace("run.json")     # load in ui.perfetto.dev
    print(summary.metrics["counters"]["context_ops{context=worker}"])
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .events import ContextTraceBuffer, TraceEvent
from .export import to_chrome_trace, to_csv, write_chrome_trace, write_csv
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fold_channel_metrics,
    fold_context_metrics,
)
from .profile import (
    PathSegment,
    ProfileReport,
    channel_meta_for,
    describe_diff,
    diff_profiles,
    events_from_chrome_trace,
    profile_trace,
    resolve_profile,
)
from .stall import ContextStall, StallReport, stall_for
from .stream import MetricsSampler
from .trace import TraceCollector, occupancy_log

__all__ = [
    "ContextStall",
    "ContextTraceBuffer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "Observability",
    "PathSegment",
    "ProfileReport",
    "StallReport",
    "TraceCollector",
    "TraceEvent",
    "channel_meta_for",
    "describe_diff",
    "diff_profiles",
    "events_from_chrome_trace",
    "fold_channel_metrics",
    "fold_context_metrics",
    "occupancy_log",
    "profile_trace",
    "resolve_profile",
    "stall_for",
    "to_chrome_trace",
    "to_csv",
    "write_chrome_trace",
    "write_csv",
]


class Observability:
    """One handle bundling a trace collector and a metrics registry.

    Pass it to either executor (or ``program.run(obs=...)``); after the
    run, query ``obs.trace`` / ``obs.metrics``, export with the ``write_*``
    methods, and — if the run deadlocked — read ``obs.stall_report``.

    ``trace=False`` or ``metrics=False`` disables that half entirely
    (disabled tracing costs one pointer check per operation).
    """

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        capture_payloads: bool = False,
    ):
        self.trace: TraceCollector | None = (
            TraceCollector(capture_payloads=capture_payloads) if trace else None
        )
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics else None
        )
        #: Populated by the executor when the run deadlocks.
        self.stall_report: StallReport | None = None
        #: Populated by the process executor's supervisor when a worker
        #: process crashes (a :class:`~repro.core.errors.WorkerCrashError`).
        self.crash_report = None
        #: Channel capacity/latency metadata set by the executor at run
        #: start (:func:`channel_meta_for`); used for exact op pairing in
        #: the profiler and embedded in Chrome trace exports.
        self.channel_meta: dict[str, Any] | None = None
        #: The post-run :class:`ProfileReport`, attached by the executor
        #: when tracing was enabled (also available as ``summary.profile``).
        self.profile_report: ProfileReport | None = None
        #: Samples taken by the live :class:`MetricsSampler` when
        #: ``RunConfig(metrics_interval_s=...)`` was set.
        self.metrics_samples: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Exporters.
    # ------------------------------------------------------------------

    def _require_trace(self) -> TraceCollector:
        if self.trace is None:
            raise ValueError("tracing was disabled on this Observability")
        return self.trace

    def chrome_trace(self) -> dict[str, Any]:
        profile = self.profile_report
        return to_chrome_trace(
            self._require_trace(),
            self.metrics,
            profile=profile.to_dict() if profile is not None else None,
            channels=self.channel_meta,
        )

    def write_chrome_trace(self, path: str | Path) -> Path:
        profile = self.profile_report
        return write_chrome_trace(
            self._require_trace(),
            path,
            self.metrics,
            profile=profile.to_dict() if profile is not None else None,
            channels=self.channel_meta,
        )

    def csv(self) -> str:
        return to_csv(self._require_trace())

    def write_csv(self, path: str | Path) -> Path:
        return write_csv(self._require_trace(), path)

    def metrics_snapshot(self) -> dict[str, Any] | None:
        return self.metrics.snapshot() if self.metrics is not None else None

    # ------------------------------------------------------------------
    # Profiling.
    # ------------------------------------------------------------------

    def profile(self, epochs: int | None = None) -> ProfileReport:
        """The run's :class:`ProfileReport` — the executor-attached one
        when available, else computed on demand from the trace."""
        if self.profile_report is not None and epochs is None:
            return self.profile_report
        from .profile import DEFAULT_EPOCHS

        report = profile_trace(
            self._require_trace(),
            channel_meta=self.channel_meta,
            epochs=epochs if epochs is not None else DEFAULT_EPOCHS,
        )
        if epochs is None:
            self.profile_report = report
        return report

"""Live metric streaming: periodic read-only snapshots during a run.

``RunConfig(metrics_interval_s=...)`` makes an executor start a
:class:`MetricsSampler` for the duration of the run.  A daemon thread
wakes every ``interval_s`` wall-clock seconds, calls the executor's
*probe* (a closure reading context clocks, op counters, and — when
metrics are enabled — the :class:`~repro.obs.metrics.MetricsRegistry`),
and hands each sample to a *sink*: a user callback, a JSONL file path,
or (always) the sampler's own ``samples`` list.

Every executor builds its probe with the one
:meth:`~repro.core.executor.base.Executor._sampler_probe`, so a sample
always holds ``contexts`` (name → clock) and, when metrics are on,
``metrics``.  Its progress counter is ``ops_executed`` on the sequential
and threaded executors; the process executor's is ``progress``, the
workers' published totals from the shared status board — ops executed
plus records moved across cut-channel lanes.

The safety argument for not perturbing SVA: the sampler only *reads*
published state — time cells, counters, shared-memory clock slots — and
never takes a lock the run's threads contend on, never touches channel
state, and never advances a clock.  Simulated behaviour is a pure
function of simulated state, so a concurrent reader cannot change
``finish_time`` or the trace (asserted by the sampled leg of the
cross-executor matrix).  Samples themselves are wall-clock artifacts and
naturally vary run to run; everything *simulated* stays bit-identical.

``stop()`` always takes one final sample before returning, so even a
run shorter than the interval yields at least one snapshot — the
deterministic hook tests and the future serve layer's ``/metrics``
endpoint rely on.
"""

from __future__ import annotations

import json
import threading
import time as _time
from pathlib import Path
from typing import Any, Callable

Probe = Callable[[], dict[str, Any]]
Sink = "Callable[[dict[str, Any]], Any] | str | Path | None"


class MetricsSampler:
    """Periodically snapshot a probe to a callback / JSONL sink.

    ``probe`` must be cheap and read-only; it is called from the sampler
    thread while the run is in flight.  Exceptions from the probe or the
    sink are swallowed after recording (observability must never take a
    run down), and surface in ``errors`` for tests.
    """

    def __init__(
        self,
        interval_s: float,
        probe: Probe,
        sink: Any = None,
        clock: Callable[[], float] = _time.monotonic,
    ):
        if interval_s <= 0:
            raise ValueError(f"metrics_interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.probe = probe
        self.samples: list[dict[str, Any]] = []
        self.errors: list[str] = []
        self._clock = clock
        self._callback: Callable[[dict[str, Any]], Any] | None = None
        self._path: Path | None = None
        if callable(sink):
            self._callback = sink
        elif sink is not None:
            self._path = Path(sink)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._file = None
        self._start_wall: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "MetricsSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self._path is not None:
            self._file = open(self._path, "a", encoding="utf-8")
        self._start_wall = self._clock()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> list[dict[str, Any]]:
        """Stop the thread, take one final sample, return all samples."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self._sample()
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None
        return self.samples

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def _sample(self) -> None:
        try:
            snapshot = self.probe()
        except Exception as exc:  # noqa: BLE001 - observability must not raise
            self.errors.append(f"probe: {exc!r}")
            return
        sample = {
            "seq": len(self.samples),
            "wall_s": round(self._clock() - self._start_wall, 6),
        }
        sample.update(snapshot)
        self.samples.append(sample)
        if self._callback is not None:
            try:
                self._callback(sample)
            except Exception as exc:  # noqa: BLE001
                self.errors.append(f"sink: {exc!r}")
        if self._file is not None:
            try:
                self._file.write(json.dumps(sample, default=str) + "\n")
                self._file.flush()
            except Exception as exc:  # noqa: BLE001
                self.errors.append(f"sink: {exc!r}")

"""A small dependency-free metrics registry: counters, gauges, histograms.

Executors and the bench harness fold their diagnostics into a
:class:`MetricsRegistry` — channel occupancy, park/unpark counts, SVA spin
reads, per-context ops and simulated time advanced, wall-clock per
context — giving every run one machine-readable metrics surface
(``RunSummary.metrics``) that benchmark trajectories can diff.

Metrics are identified by a name plus optional labels::

    registry.counter("parks", context="worker3").inc()
    registry.gauge("channel_max_occupancy", channel="scores").set_max(12)
    registry.histogram("context_wall_seconds").observe(0.03)

The write paths are designed for the executors' folding discipline:
per-context tallies are kept in executor-local storage (touched only by
one thread of control) and folded into the registry once, at run end, so
the registry itself needs no locking.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterator

_MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> _MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: _MetricKey) -> str:
    """Render ``("parks", (("context","a"),))`` as ``parks{context=a}``."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value (last write wins; ``set_max`` keeps peaks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value

    def set_max(self, value: Any) -> None:
        if self.value is None or value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


#: Log-linear quantile buckets: this many per octave (power of two).
_QUANTILE_SUBDIV = 4
#: Bucket index for values <= 0 (histograms observe durations, but a
#: zero-cost op is legal and must not blow up ``log2``).
_UNDERFLOW_BUCKET = -(2**31)


def _bucket(value: float) -> int:
    if value <= 0:
        return _UNDERFLOW_BUCKET
    return math.ceil(math.log2(value) * _QUANTILE_SUBDIV)


def _representative(bucket: int, low: float, high: float) -> float:
    """The value a quantile in ``bucket`` reads as, clamped into the
    observed ``[low, high]``."""
    if bucket == _UNDERFLOW_BUCKET:
        return float(low)
    return min(max(2.0 ** (bucket / _QUANTILE_SUBDIV), float(low)), float(high))


def sorted_quantile(ordered: list, q: float) -> float:
    """What :meth:`Histogram.quantile` returns for the values ``ordered``
    (ascending), without building the histogram: the buckets rise with
    the values, so the first bucket whose running count passes the rank
    ``q * (n - 1)`` is the bucket of the value at that rank, rounded
    down."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    if not ordered:
        return 0.0
    if q == 0.0:
        return float(ordered[0])
    if q == 1.0:
        return float(ordered[-1])
    value = ordered[int(q * (len(ordered) - 1))]
    return _representative(_bucket(value), ordered[0], ordered[-1])


class Histogram:
    """Streaming summary statistics (count / min / max / mean / total)
    plus a log-linear bucket sketch backing :meth:`quantile`.

    The buckets are deterministic functions of the observed values (no
    sampling), so histograms over simulated quantities stay bit-identical
    across executors; ``summary()`` intentionally keeps its original
    bucket-free shape for ``RunSummary.metrics`` stability.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = _bucket(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the bucket
        sketch; exact at the extremes (``q=0`` -> min, ``q=1`` -> max),
        within one log-linear bucket (~19%) elsewhere."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if q == 0.0:
            return float(self.min)  # type: ignore[arg-type]
        if q == 1.0:
            return float(self.max)  # type: ignore[arg-type]
        rank = q * (self.count - 1)
        cumulative = 0
        for bucket in sorted(self._buckets):
            cumulative += self._buckets[bucket]
            if cumulative > rank:
                return _representative(bucket, self.min, self.max)
        return float(self.max)  # type: ignore[arg-type]

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Creates-on-first-use registry of named, labelled metrics."""

    def __init__(self) -> None:
        self._counters: dict[_MetricKey, Counter] = {}
        self._gauges: dict[_MetricKey, Gauge] = {}
        self._histograms: dict[_MetricKey, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    # Read side.
    # ------------------------------------------------------------------

    def counters(self) -> Iterator[tuple[str, int]]:
        for key in sorted(self._counters):
            yield format_key(key), self._counters[key].value

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every metric, keyed ``name{label=value}``.

        This is what lands in ``RunSummary.metrics`` and in benchmark
        JSON files, so it must contain only JSON-serializable values.
        """
        return {
            "counters": {
                format_key(key): metric.value
                for key, metric in sorted(self._counters.items())
            },
            "gauges": {
                format_key(key): metric.value
                for key, metric in sorted(self._gauges.items())
            },
            "histograms": {
                format_key(key): metric.summary()
                for key, metric in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True, default=str)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Checkpoint round-trip (DESIGN.md §17).  snapshot() is lossy — it
    # flattens label tuples into display strings and reduces histograms
    # to their summaries — so checkpoints carry this raw form instead,
    # from which load_state() rebuilds every metric exactly (including
    # the quantile bucket sketches).
    # ------------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """Full-fidelity state of every metric, as picklable plain data."""
        return {
            "counters": [
                (key, metric.value) for key, metric in sorted(self._counters.items())
            ],
            "gauges": [
                (key, metric.value) for key, metric in sorted(self._gauges.items())
            ],
            "histograms": [
                (
                    key,
                    {
                        "count": metric.count,
                        "total": metric.total,
                        "min": metric.min,
                        "max": metric.max,
                        "buckets": dict(metric._buckets),
                    },
                )
                for key, metric in sorted(self._histograms.items())
            ],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Replace this registry's contents with a :meth:`dump_state` dump."""

        def rekey(key) -> _MetricKey:
            name, labels = key
            return name, tuple(tuple(pair) for pair in labels)

        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        for key, value in state.get("counters", []):
            metric = Counter()
            metric.value = value
            self._counters[rekey(key)] = metric
        for key, value in state.get("gauges", []):
            metric = Gauge()
            metric.value = value
            self._gauges[rekey(key)] = metric
        for key, dumped in state.get("histograms", []):
            metric = Histogram()
            metric.count = dumped["count"]
            metric.total = dumped["total"]
            metric.min = dumped["min"]
            metric.max = dumped["max"]
            metric._buckets = dict(dumped["buckets"])
            self._histograms[rekey(key)] = metric


def fold_channel_metrics(registry: MetricsRegistry, channels) -> None:
    """Fold per-channel :class:`~repro.core.channel.ChannelStats` into the
    registry: traffic counters, the always-on peak real occupancy, and a
    cross-channel occupancy distribution."""
    occupancy_dist = registry.histogram("channel_max_occupancy_dist")
    for channel in channels:
        stats = channel.stats
        registry.counter("channel_enqueues", channel=channel.name).inc(stats.enqueues)
        registry.counter("channel_dequeues", channel=channel.name).inc(stats.dequeues)
        if stats.peeks:
            registry.counter("channel_peeks", channel=channel.name).inc(stats.peeks)
        registry.gauge("channel_max_occupancy", channel=channel.name).set_max(
            stats.max_real_occupancy
        )
        occupancy_dist.observe(stats.max_real_occupancy)


def fold_context_metrics(
    registry: MetricsRegistry,
    name: str,
    ops: int = 0,
    finish_time: Any = None,
    wall_seconds: float | None = None,
    parks: int = 0,
    spin_reads: int = 0,
) -> None:
    """Fold one context's executor-local tallies into the registry."""
    if ops:
        registry.counter("context_ops", context=name).inc(ops)
    if finish_time is not None:
        registry.gauge("context_finish_time", context=name).set(finish_time)
        registry.histogram("context_finish_time_dist").observe(finish_time)
    if wall_seconds is not None:
        registry.gauge("context_wall_seconds", context=name).set(wall_seconds)
        registry.histogram("context_wall_seconds_dist").observe(wall_seconds)
    if parks:
        registry.counter("context_parks", context=name).inc(parks)
    if spin_reads:
        registry.counter("context_spin_reads", context=name).inc(spin_reads)

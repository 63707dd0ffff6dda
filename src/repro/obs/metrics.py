"""The metrics registry: counters, gauges, time stats and histograms.

Instrumentation backbone for the simulated system *and* the host-side
serving datapath.  A :class:`MetricsRegistry` is handed to
:class:`repro.host.device.SimulatedDevice` (and propagated to the HBM
channels, the DMA engine, the PE cores and the device memory manager)
or to the serving broker/executor; each component resolves its metric
objects **once at construction** and updates them from the callbacks
it already executes.  Three invariants make the layer safe to leave
on:

* **zero cost when disabled** — components hold ``None`` instead of
  metric objects when no registry is supplied, and every update site
  is guarded by a single ``is not None`` check;
* **strictly observational** — metrics never create simulation events
  or timeouts, only read ``env.now``, so simulated timings are
  bit-identical with and without a registry attached (asserted by the
  fast-forward equivalence suite);
* **atomic under threads** — every instrument of a registry shares
  that registry's lock, so increments from the broker's ``n_lanes``
  dispatch threads and the executor's lane submits never lose updates,
  and :meth:`MetricsRegistry.snapshot` is a consistent point-in-time
  view (a bare ``value += amount`` is a read-modify-write race under
  concurrent lane completion; the regression test hammers two lanes to
  prove updates survive).

Metric names are dotted paths (``hbm.ch0.bytes_read``,
``pe1.busy_seconds``, ``serving.queue_wait``); the
:class:`repro.obs.report.UtilizationReport` fuses them with
:class:`repro.obs.trace_export.SpanRecorder` spans into the paper's
utilization claims, and :mod:`repro.obs.exporter` streams them out as
Prometheus-style text or JSON.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, Optional

from repro.errors import ReproError
from repro.obs.hist import LogHistogram

__all__ = [
    "Counter",
    "Gauge",
    "TimeWeightedStat",
    "LogHistogram",
    "MetricsRegistry",
]


class Counter:
    """A named monotonically-increasing counter (ints or seconds)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, *, lock: Optional[threading.RLock] = None):
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; *amount* must be non-negative."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A named instantaneous value that also tracks its high-water mark."""

    __slots__ = ("name", "value", "maximum", "_lock")

    def __init__(self, name: str, *, lock: Optional[threading.RLock] = None):
        self.name = name
        self.value = 0.0
        self.maximum = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        """Replace the current value (high-water mark is retained)."""
        with self._lock:
            self.value = value
            if value > self.maximum:
                self.maximum = value

    def add(self, delta: float) -> None:
        """Shift the current value by *delta* (may be negative)."""
        with self._lock:
            self.set(self.value + delta)


class TimeWeightedStat:
    """Time-weighted mean/maximum of a sampled level (queue depth, ...).

    Call :meth:`update` with the *new* level whenever it changes; the
    previous level is integrated over the interval since the last
    update.  Time comes from the caller (``env.now``) so the stat never
    touches the engine.
    """

    __slots__ = (
        "name", "_level", "_since", "_area", "_observed", "maximum", "_lock"
    )

    def __init__(self, name: str, *, lock: Optional[threading.RLock] = None):
        self.name = name
        self._level = 0.0
        self._since: Optional[float] = None
        self._area = 0.0
        self._observed = 0.0
        self.maximum = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def update(self, level: float, now: float) -> None:
        """Record that the level is *level* from simulated time *now*."""
        with self._lock:
            if self._since is not None and now > self._since:
                self._area += self._level * (now - self._since)
                self._observed += now - self._since
            self._since = now
            self._level = level
            if level > self.maximum:
                self.maximum = level

    def mean(self) -> float:
        """Time-weighted mean level over the observed window."""
        with self._lock:
            if self._observed <= 0.0:
                return 0.0
            return self._area / self._observed


class MetricsRegistry:
    """Get-or-create registry of counters, gauges, time stats, histograms.

    All instruments created through one registry share one reentrant
    lock: increments are atomic across the serving broker's dispatch
    threads and executor lanes, and :meth:`snapshot` reads a consistent
    cut of every instrument.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._stats: Dict[str, TimeWeightedStat] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    # -- get-or-create ----------------------------------------------------------
    def _registered_kind(self, name: str) -> Optional[str]:
        """The instrument type *name* is registered as, if any."""
        if name in self._counters:
            return "counter"
        if name in self._gauges:
            return "gauge"
        if name in self._stats:
            return "time_stat"
        if name in self._histograms:
            return "histogram"
        return None

    def _check_collision(self, name: str, kind: str) -> None:
        """Reject registering *name* as a second instrument type."""
        existing = self._registered_kind(name)
        if existing is not None and existing != kind:
            raise ReproError(
                f"metric {name!r} is already registered as a {existing}; "
                f"cannot re-register it as a {kind}"
            )

    def counter(self, name: str) -> Counter:
        """The counter registered as *name* (created on first use)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                self._check_collision(name, "counter")
                counter = self._counters[name] = Counter(name, lock=self._lock)
            return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered as *name* (created on first use)."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                self._check_collision(name, "gauge")
                gauge = self._gauges[name] = Gauge(name, lock=self._lock)
            return gauge

    def time_stat(self, name: str) -> TimeWeightedStat:
        """The time-weighted stat registered as *name*."""
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                self._check_collision(name, "time_stat")
                stat = self._stats[name] = TimeWeightedStat(
                    name, lock=self._lock
                )
            return stat

    def histogram(self, name: str, **kwargs) -> LogHistogram:
        """The log-bucketed histogram registered as *name*.

        Extra keyword arguments (``min_value``/``max_value``/
        ``growth``) configure the bucket layout on first creation and
        are ignored on later lookups of the same name.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                self._check_collision(name, "histogram")
                hist = self._histograms[name] = LogHistogram(
                    name, lock=self._lock, **kwargs
                )
            return hist

    # -- read-only access -------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter or gauge, *default* if absent."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.value
        return default

    def maximum(self, name: str, default: float = 0.0) -> float:
        """High-water mark of a gauge or time stat, *default* if absent."""
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.maximum
        stat = self._stats.get(name)
        if stat is not None:
            return stat.maximum
        return default

    def has(self, name: str) -> bool:
        """True when any metric was registered as *name*."""
        return (
            name in self._counters
            or name in self._gauges
            or name in self._stats
            or name in self._histograms
        )

    def names(self) -> Iterable[str]:
        """All registered metric names (every instrument kind)."""
        yield from self._counters
        yield from self._gauges
        yield from self._stats
        yield from self._histograms

    # -- export -----------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict dump of every metric (JSON-serialisable).

        Taken under the registry lock, so concurrent lane completions
        never tear a half-applied update across the snapshot.  Empty
        histograms report ``None`` quantiles (strict-JSON safe).
        """
        def _finite(value: float):
            return value if value == value and abs(value) != float("inf") \
                else None

        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: {"value": g.value, "max": g.maximum}
                    for name, g in sorted(self._gauges.items())
                },
                "time_stats": {
                    name: {"mean": s.mean(), "max": s.maximum}
                    for name, s in sorted(self._stats.items())
                },
                "histograms": {
                    name: {
                        key: (_finite(val) if key != "count" else val)
                        for key, val in h.summary().items()
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The :meth:`snapshot` serialised as JSON."""
        return json.dumps(self.snapshot(), indent=indent)

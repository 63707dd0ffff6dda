"""The metrics registry: counters, gauges, time stats and histograms.

Instrumentation backbone for the simulated system *and* the host-side
serving datapath.  Components — the simulated HBM channels, DMA,
allocators and cores, the broker's ``BrokerStats`` and the executor's
``ExecutorStats`` — keep plain numeric fields and register them once
(:meth:`MetricsRegistry.register_stats`); the registry reads them when
it is read.  It creates only the latency histograms, the HBM
queue-depth time stat and the native kernel's counters.  Three
invariants make the layer safe to leave on:

* **zero cost when disabled** — a field update is one add with or
  without a registry, and a component holding no instrument skips it
  with one ``is not None`` check;
* **strictly observational** — metrics never create simulation events
  or timeouts, only read ``env.now``, so simulated timings are
  bit-identical with and without a registry attached (asserted by the
  fast-forward equivalence suite);
* **atomic under threads** — every instrument the registry creates
  shares that registry's lock, so increments from the broker's
  dispatch threads never lose updates, and :meth:`MetricsRegistry.
  snapshot` is a consistent cut of them.  Fields are their owner's
  to guard: the executor folds a batch in under its own lock, and the
  broker's fields live on its event-loop thread.

Metric names are dotted paths (``hbm.ch0.bytes_read``,
``pe1.busy_seconds``, ``serving.queue_wait``); the
:class:`repro.obs.report.UtilizationReport` fuses them with
:class:`repro.obs.trace_export.SpanRecorder` spans into the paper's
utilization claims, and :class:`repro.obs.trace_export.
ChromeTraceBuilder` embeds the end-of-run :meth:`MetricsRegistry.
snapshot` in the Perfetto trace.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.hist import LogHistogram

__all__ = [
    "Counter",
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


class _FieldStat(list):
    """The ``(owner, field, max_field)`` sources of a counter or gauge
    whose value lives in its owners' fields: several owners (one broker
    per rate point of a sweep) read as the sum of their fields, and a
    gauge's maximum as the largest of their high-water fields."""

    @property
    def value(self) -> float:
        return float(sum(getattr(owner, field) for owner, field, _ in self))

    @property
    def maximum(self) -> float:
        return float(max(getattr(owner, field) for owner, _, field in self))


class MetricsRegistry:
    """Registry of field-backed counters and gauges, and of the
    counters, time stats and histograms it creates on first use.

    All instruments created through one registry share one reentrant
    lock: increments are atomic across threads, and :meth:`snapshot`
    reads a consistent cut of every instrument.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: Dict[str, Union[Counter, _FieldStat]] = {}
        self._gauges: Dict[str, _FieldStat] = {}
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

    def register_stats(
        self,
        owner,
        prefix: str,
        counters: Union[Iterable[str], Mapping[str, str]],
        gauges: Optional[Mapping[str, Tuple[str, str]]] = None,
    ) -> None:
        """Publish *owner*'s numeric fields as ``prefix.name`` metrics,
        read whenever the registry is read.  *counters* maps metric
        names to fields, or lists fields named like their metrics;
        *gauges* maps a metric name to its value and high-water fields.
        A name other owners registered too reads as their sum; one the
        registry created an instrument for raises."""
        if not isinstance(counters, Mapping):
            counters = {name: name for name in counters}
        entries = [(self._counters, name, (field, None)) for name, field in counters.items()]
        entries += [(self._gauges, name, fields) for name, fields in (gauges or {}).items()]
        with self._lock:
            for table, name, (field, max_field) in entries:
                full = f"{prefix}.{name}"
                stat = table.get(full)
                if not isinstance(stat, _FieldStat):
                    if self.has(full):
                        raise ReproError(f"metric {full!r} is already registered")
                    stat = table[full] = _FieldStat()
                stat.append((owner, field, max_field))

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

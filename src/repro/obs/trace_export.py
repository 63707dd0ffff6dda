"""Spans and their Chrome/Perfetto export: one event model, two clocks.

The paper's §IV-B claim — "one thread will be able to perform data
transfers for block n+1, while another thread is waiting for the FPGA
accelerator" — is a *timeline* claim.  This module holds the one
event model that shows it:

* :class:`Span` — one named ``(track, label, begin, end)`` interval;
* :class:`SpanRecorder` — validates and stores spans against an
  epoch, and answers the timeline questions (:meth:`~SpanRecorder.
  busy_time`, :meth:`~SpanRecorder.overlap_time`, an ASCII
  :meth:`~SpanRecorder.timeline`) through one interval algebra,
  :func:`merged_intervals` and :func:`intersection_length`.

The simulated models (:class:`~repro.host.runtime.InferenceRuntime`,
the HBM channels) record DMA transfers, PE jobs and per-channel HBM
requests in simulated seconds, and the §IV-B overlap shows up
directly as overlapping spans on the DMA and PE tracks.  The host
code (the :class:`~repro.baselines.executor.ParallelPlanExecutor`
workers, the serving broker's lanes and native kernel calls) records
wall-clock spans from :func:`time.perf_counter` stamps.  Recording is
strictly observational: models never change behaviour when traced (a
recorder only stores timestamps it is handed).

:class:`ChromeTraceBuilder` converts recorded spans and
:class:`~repro.obs.metrics.MetricsRegistry` counters and gauges into
the `Chrome Trace Event Format`_ consumed by ``chrome://tracing`` and
https://ui.perfetto.dev: spans become complete (``ph: "X"``) duration
events, counters and gauges become counter (``ph: "C"``) events next
to the spans they explain.  The registry's end-of-run
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (histogram
count/sum/quantiles included) rides along under
``otherData["metrics"]["pid <n>"]``, so one file holds both the
timeline and the run's final numbers.

**Clock domains.**  Simulated time and host wall-clock time are not
comparable, so the exporter never mixes them on one track: sim events
land under pid :data:`SIM_PID` ("simulated device — sim clock") and
host events under pid :data:`HOST_PID` ("host — wall clock,
CLOCK_MONOTONIC since recorder epoch"); process metadata names the
clock domain explicitly.  Timestamps are microseconds from each
domain's own zero, the unit the trace format mandates.

**Strictly observational.**  Export runs *after* a simulation has
finished and only reads spans and metric values, so it cannot move a
simulated time.  ``repro trace`` writes the merged sim+host trace of
one instrumented run per side; ``repro serve --trace-out`` writes the
serving trace.

.. _Chrome Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "SIM_PID",
    "HOST_PID",
    "Span",
    "SpanRecorder",
    "merged_intervals",
    "intersection_length",
    "ChromeTraceBuilder",
]

#: Process id of the simulated-clock process group in exported traces.
SIM_PID = 1

#: Process id of the host wall-clock process group in exported traces.
HOST_PID = 2

_SECONDS_TO_US = 1e6


@dataclass(frozen=True)
class Span:
    """One interval on a named track, in seconds since its recorder's epoch."""

    track: str
    label: str
    begin: float
    end: float

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.begin


def merged_intervals(
    intervals: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Merge (begin, end) intervals into a disjoint sorted union.

    Touching intervals (one ends where the next begins) merge.
    """
    out: List[Tuple[float, float]] = []
    for begin, end in sorted(intervals):
        if out and begin <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((begin, end))
    return out


def intersection_length(
    a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]
) -> float:
    """Total length of the intersection of two disjoint sorted interval lists.

    One linear two-pointer walk over both lists (the form
    :func:`merged_intervals` returns).
    """
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        begin = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > begin:
            total += end - begin
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


class SpanRecorder:
    """Validates and stores spans against one epoch.

    :meth:`record` takes absolute stamps and stores them relative to
    *epoch*.  The simulated models record simulated seconds against
    the default epoch 0.0.  Host code that wants times relative to
    construction passes ``epoch=time.perf_counter()``; stamps taken
    inside forked worker processes share that clock, since
    ``CLOCK_MONOTONIC`` is system-wide.
    """

    def __init__(self, epoch: float = 0.0):
        self.epoch = epoch
        self.spans: List[Span] = []

    # -- recording -----------------------------------------------------------
    def record(self, track: str, label: str, begin: float, end: float) -> None:
        """Record a completed span from absolute stamps."""
        if end < begin:
            raise ReproError(f"span ends before it begins ({begin} > {end})")
        self.spans.append(
            Span(track, label, begin - self.epoch, end - self.epoch)
        )

    @contextmanager
    def span(self, track: str, label: str):
        """Context manager recording the wall time of its body."""
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.record(track, label, begin, time.perf_counter())

    # -- analysis ------------------------------------------------------------
    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        return list(dict.fromkeys(span.track for span in self.spans))

    def _merged(self, track: str) -> List[Tuple[float, float]]:
        return merged_intervals(
            (s.begin, s.end) for s in self.spans if s.track == track
        )

    def busy_time(self, track: str) -> float:
        """Union length of all spans on *track* (overlaps merged)."""
        return sum(end - begin for begin, end in self._merged(track))

    def overlap_time(self, track_a: str, track_b: str) -> float:
        """Time during which both tracks have a span in flight."""
        return intersection_length(self._merged(track_a), self._merged(track_b))

    # -- rendering -----------------------------------------------------------
    def timeline(self, width: int = 72, until: Optional[float] = None) -> str:
        """Render all tracks as an aligned ASCII Gantt chart."""
        if not self.spans:
            return "(no spans recorded)"
        horizon = until if until is not None else max(s.end for s in self.spans)
        if horizon <= 0:
            raise ReproError("cannot render a zero-length timeline")
        tracks = self.tracks()
        name_width = max(len(t) for t in tracks)
        lines = [
            f"timeline 0 .. {horizon * 1e6:.1f} us "
            f"({width} columns, '#' = busy)"
        ]
        for track in tracks:
            cells = [" "] * width
            for span in self.spans:
                if span.track != track or span.begin > horizon:
                    continue
                # Clamp the start column so spans beginning exactly at
                # the horizon still land in the last cell, and always
                # paint at least one cell so zero-duration spans (and
                # spans much shorter than a column) stay visible.
                first = min(int(span.begin / horizon * width), width - 1)
                last = int(min(span.end, horizon) / horizon * width)
                for column in range(first, max(first + 1, last)):
                    if column < width:
                        cells[column] = "#"
            lines.append(f"{track.rjust(name_width)} |{''.join(cells)}|")
        return "\n".join(lines)


#: Kept only for ``benchmarks/e2e/harness/workloads.py``, which imports
#: ``HostSpanRecorder`` from here; delete with that import.
HostSpanRecorder = SpanRecorder


class ChromeTraceBuilder:
    """Accumulates Chrome Trace Event Format events and serialises them.

    Every event carries the five mandatory fields (``name``, ``ph``,
    ``ts``, ``pid``, ``tid``); tracks become threads (one ``tid`` per
    track name per process group, announced with ``thread_name``
    metadata), and process groups announce their clock domain in
    ``process_name`` metadata.
    """

    def __init__(self):
        self._events: List[dict] = []
        self._tids: Dict[Tuple[int, str], int] = {}
        self._named_processes: Dict[int, str] = {}
        self._metrics: Dict[int, dict] = {}

    # -- structure --------------------------------------------------------------
    def add_process(self, pid: int, name: str, *, clock: str) -> None:
        """Announce a process group and the clock domain it ticks."""
        if pid in self._named_processes:
            return
        self._named_processes[pid] = clock
        self._events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{name} [{clock}]"},
            }
        )
        self._events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )

    def _tid(self, pid: int, track: str) -> int:
        tid = self._tids.get((pid, track))
        if tid is None:
            tid = len([key for key in self._tids if key[0] == pid]) + 1
            self._tids[(pid, track)] = tid
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
            self._events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        return tid

    # -- events -----------------------------------------------------------------
    def add_span(
        self,
        pid: int,
        track: str,
        label: str,
        begin_seconds: float,
        end_seconds: float,
        *,
        category: str,
    ) -> None:
        """Add one complete ("X") duration event."""
        self._events.append(
            {
                "name": label,
                "cat": category,
                "ph": "X",
                "ts": begin_seconds * _SECONDS_TO_US,
                "dur": max(0.0, (end_seconds - begin_seconds)) * _SECONDS_TO_US,
                "pid": pid,
                "tid": self._tid(pid, track),
            }
        )

    def add_counter(
        self, pid: int, name: str, value: float, *, at_seconds: float
    ) -> None:
        """Add one counter ("C") sample."""
        self._events.append(
            {
                "name": name,
                "cat": "metrics",
                "ph": "C",
                "ts": at_seconds * _SECONDS_TO_US,
                "pid": pid,
                "tid": 0,
                "args": {"value": value},
            }
        )

    def add_flow(
        self,
        pid: int,
        track: str,
        name: str,
        at_seconds: float,
        *,
        flow_id: int,
        phase: str,
        category: str = "request",
    ) -> None:
        """Add one flow event ("s" start / "t" step / "f" finish).

        Flow events with one *flow_id* draw a connected arrow between
        the slices enclosing them: viewers bind each event to the
        span covering ``at_seconds`` on ``(pid, track)``, so the
        timestamp must land inside an already-added "X" span there
        (the finish event carries ``bp: "e"`` to bind to the enclosing
        slice, per the trace format spec).
        """
        if phase not in ("s", "t", "f"):
            raise ReproError(
                f"flow phase must be 's', 't' or 'f', got {phase!r}"
            )
        event = {
            "name": name,
            "cat": category,
            "ph": phase,
            "ts": at_seconds * _SECONDS_TO_US,
            "pid": pid,
            "tid": self._tid(pid, track),
            "id": flow_id,
        }
        if phase == "f":
            event["bp"] = "e"
        self._events.append(event)

    def add_async_span(
        self,
        pid: int,
        track: str,
        name: str,
        begin_seconds: float,
        end_seconds: float,
        *,
        async_id: int,
        category: str = "request",
    ) -> None:
        """Add one async ("b"/"e") interval.

        Async events live on their own rows grouped by
        ``(category, async_id)`` — the natural shape for a request's
        end-to-end lifetime, which overlaps other requests' and so
        cannot be a nested "X" slice on a single thread track.
        """
        if end_seconds < begin_seconds:
            raise ReproError(
                f"async span ends before it begins "
                f"({begin_seconds} > {end_seconds})"
            )
        tid = self._tid(pid, track)
        for phase, at in (("b", begin_seconds), ("e", end_seconds)):
            self._events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": phase,
                    "ts": at * _SECONDS_TO_US,
                    "pid": pid,
                    "tid": tid,
                    "id": async_id,
                }
            )

    def _announce_default(self, pid: int) -> None:
        """Name a process group by convention if the caller did not."""
        if pid in self._named_processes:
            return
        if pid == HOST_PID:
            self.add_process(
                pid,
                "host",
                clock="wall clock, CLOCK_MONOTONIC since recorder epoch",
            )
        else:
            self.add_process(
                pid, "simulated device", clock="sim clock, simulated seconds"
            )

    # -- bulk adapters ----------------------------------------------------------
    def add_metrics(self, metrics, *, at_seconds: float, pid: int = SIM_PID) -> int:
        """Add registry counters/gauges as counter-event tracks.

        Counters get a zero sample at t=0 plus their final value at
        *at_seconds* (the run's elapsed time), so viewers draw a ramp
        over the run; gauges get their final value and, where it
        differs, their high-water mark as a separate series.  The whole
        snapshot — time stats and histograms too — is kept for
        ``otherData["metrics"]["pid <pid>"]``.
        """
        self._announce_default(pid)
        snapshot = metrics.snapshot()
        self._metrics[pid] = snapshot
        added = 0
        for name, value in snapshot["counters"].items():
            self.add_counter(pid, name, 0.0, at_seconds=0.0)
            self.add_counter(pid, name, value, at_seconds=at_seconds)
            added += 1
        for name, values in snapshot["gauges"].items():
            self.add_counter(pid, name, values["value"], at_seconds=at_seconds)
            if values["max"] != values["value"]:
                self.add_counter(
                    pid, name + ".max", values["max"], at_seconds=at_seconds
                )
            added += 1
        return added

    def add_spans(self, spans: Iterable[Span], *, pid: int, category: str) -> int:
        """Add every span as a duration event under process group *pid*.

        Returns the number of span events added.  The process group is
        announced with its clock domain unless the caller already named
        it.
        """
        self._announce_default(pid)
        added = 0
        for span in spans:
            self.add_span(
                pid, span.track, span.label, span.begin, span.end, category=category
            )
            added += 1
        return added

    # -- serialisation ----------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-object form of the trace (``traceEvents`` et al.)."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.trace_export",
                "clock_domains": {
                    f"pid {pid}": clock
                    for pid, clock in sorted(self._named_processes.items())
                },
                "metrics": {
                    f"pid {pid}": snapshot
                    for pid, snapshot in sorted(self._metrics.items())
                },
            },
        }

    def write(self, path: str) -> dict:
        """Serialise the trace to *path*; returns a small summary."""
        payload = self.to_dict()
        with open(path, "w") as handle:
            json.dump(payload, handle)
        events = payload["traceEvents"]
        return {
            "path": path,
            "n_events": len(events),
            "n_spans": sum(1 for e in events if e["ph"] == "X"),
            "n_counters": sum(1 for e in events if e["ph"] == "C"),
            "n_flows": sum(1 for e in events if e["ph"] in ("s", "t", "f")),
        }

"""Request-scoped tracing for the serving datapath.

Aggregate counters say *that* serving is slow; they cannot say where
one query's 4.2 ms went.  This module carries a per-request
:class:`RequestTrace` through the broker: monotonic
(``time.perf_counter``) stamps at every stage boundary of the serve
path —

``enqueue`` → ``batch_seal`` → ``dispatch`` → ``kernel_start`` →
``kernel_end`` → ``complete``

— which decompose end-to-end latency into the five additive stages the
per-stage histograms (``serving.batch_form`` / ``serving.queue_wait``
/ ``serving.dispatch`` / ``serving.kernel`` / ``serving.scatter``)
report:

* **batch_form** (enqueue → batch_seal): the coalescing window — how
  long the request sat in its forming batch (includes any wait for a
  free arena);
* **queue_wait** (batch_seal → dispatch): the sealed batch queued for
  a free dispatch lane thread;
* **dispatch** (dispatch → kernel_start): lane-thread preamble up to
  the engine call;
* **kernel** (kernel_start → kernel_end): the engine call itself;
* **scatter** (kernel_end → complete): results scattered back through
  the event loop onto the caller's future.

Tracing every request would be observer effect, not observability, so
the :class:`RequestTraceRecorder` samples 1-in-N (deterministic
round-robin, first request always sampled) into a bounded ring buffer
— fixed memory and amortised-zero cost at any request rate, the
standard tail-sampling compromise.  Completed traces export into the
existing Chrome/Perfetto trace as **flow events**
(:func:`add_request_flows`): a sampled request renders as a clickable
arrow from the load generator's wait span through the broker handoff
and its ``serving lane<k>`` batch span into the ``executor worker``
span that evaluated it, plus an async ``b``/``e`` interval for its
end-to-end lifetime.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.trace_export import HOST_PID, ChromeTraceBuilder

__all__ = [
    "REQUEST_STAGES",
    "STAGE_HISTOGRAMS",
    "RequestTrace",
    "RequestTraceRecorder",
    "add_request_flows",
    "stage_partition_problems",
]

#: Stage-boundary stamps every trace carries, in path order.
REQUEST_STAGES: Tuple[str, ...] = (
    "enqueue",
    "batch_seal",
    "dispatch",
    "kernel_start",
    "kernel_end",
    "complete",
)

#: The additive per-stage histogram names (``serving.<stage>``) and the
#: stamp pair each one measures.  The five stages partition
#: ``serving.e2e`` exactly: per request,
#: ``sum(stages) == complete - enqueue``.
STAGE_HISTOGRAMS: Tuple[Tuple[str, str, str], ...] = (
    ("batch_form", "enqueue", "batch_seal"),
    ("queue_wait", "batch_seal", "dispatch"),
    ("dispatch", "dispatch", "kernel_start"),
    ("kernel", "kernel_start", "kernel_end"),
    ("scatter", "kernel_end", "complete"),
)


def stage_partition_problems(histograms: Dict[str, dict], n_ok: int) -> List[str]:
    """What breaks the stage partition in a metrics snapshot; [] if none.

    *histograms* is :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`'s
    ``"histograms"`` dict, the one a serving trace embeds.  Each stage
    and ``serving.e2e`` must hold one sample per answered request
    (*n_ok*), and because every request's stamps telescope the five
    stage totals must sum to the e2e total up to float rounding
    (relative 1e-9).  Totals, not medians: medians of a sum do not add,
    so a median check fails on correct runs whenever the stage
    distributions are skewed.
    """
    stages = [f"serving.{stage}" for stage, _, _ in STAGE_HISTOGRAMS]
    empty = {"count": 0, "sum": 0.0}
    summaries = {
        name: histograms.get(name, empty) for name in stages + ["serving.e2e"]
    }
    problems = [
        f"{name} histogram holds {summary['count']} samples for {n_ok} "
        "answered requests"
        for name, summary in summaries.items()
        if summary["count"] != n_ok
    ]
    stage_sum = sum(summaries[name]["sum"] for name in stages)
    e2e_sum = summaries["serving.e2e"]["sum"]
    if abs(stage_sum - e2e_sum) > 1e-9 * e2e_sum:
        problems.append(
            f"stage totals sum to {stage_sum * 1e3:.6f} ms vs e2e total "
            f"{e2e_sum * 1e3:.6f} ms (the stages no longer partition "
            "end-to-end latency)"
        )
    return problems


class RequestTrace:
    """Stage stamps of one sampled request (absolute perf_counter)."""

    __slots__ = (
        "trace_id",
        "enqueue",
        "batch_seal",
        "dispatch",
        "kernel_start",
        "kernel_end",
        "complete",
        "lane",
        "batch_id",
        "worker_track",
        "shed",
    )

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.enqueue: Optional[float] = None
        self.batch_seal: Optional[float] = None
        self.dispatch: Optional[float] = None
        self.kernel_start: Optional[float] = None
        self.kernel_end: Optional[float] = None
        self.complete: Optional[float] = None
        self.lane: Optional[int] = None
        self.batch_id: Optional[int] = None
        self.worker_track: Optional[str] = None
        self.shed = False

    def stamp(self, stage: str, at: float) -> None:
        """Set one stage-boundary stamp (absolute ``perf_counter``)."""
        if stage not in REQUEST_STAGES:
            raise ReproError(
                f"unknown request stage {stage!r}; stages are "
                f"{', '.join(REQUEST_STAGES)}"
            )
        setattr(self, stage, at)

    @property
    def is_complete(self) -> bool:
        """True when every stage stamp was recorded (and not shed)."""
        return not self.shed and all(
            getattr(self, stage) is not None for stage in REQUEST_STAGES
        )

    def stage_seconds(self) -> Dict[str, float]:
        """The five additive stage durations (requires all stamps)."""
        if not self.is_complete:
            raise ReproError(
                f"request trace {self.trace_id} is incomplete; "
                "stage_seconds() needs every stamp"
            )
        return {
            name: max(0.0, getattr(self, end) - getattr(self, begin))
            for name, begin, end in STAGE_HISTOGRAMS
        }

    def to_dict(self) -> dict:
        """JSON-native dump (stamps absolute, seconds)."""
        return {
            "trace_id": self.trace_id,
            **{stage: getattr(self, stage) for stage in REQUEST_STAGES},
            "lane": self.lane,
            "batch_id": self.batch_id,
            "worker_track": self.worker_track,
            "shed": self.shed,
        }


class RequestTraceRecorder:
    """1-in-N sampler + bounded ring buffer of completed traces.

    :meth:`sample` is called once per request (on the event loop) and
    returns a fresh :class:`RequestTrace` for every ``sample_every``-th
    call — the first request is always sampled, so even the shortest
    run produces at least one flow.  :meth:`add` pushes a finished
    trace into a ``deque(maxlen=capacity)`` ring: memory is bounded no
    matter how long the broker serves, and the retained traces are the
    most recent ones (the ones a live debugging session cares about).
    """

    def __init__(self, capacity: int = 1024, *, sample_every: int = 16):
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ReproError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self.seen = 0
        self.sampled = 0
        self._ring: Deque[RequestTrace] = deque(maxlen=self.capacity)

    def sample(self) -> Optional[RequestTrace]:
        """A new trace for every N-th request, ``None`` otherwise."""
        index = self.seen
        self.seen += 1
        if index % self.sample_every:
            return None
        trace = RequestTrace(self.sampled)
        self.sampled += 1
        return trace

    def add(self, trace: RequestTrace) -> None:
        """Push one finished trace into the ring (evicts the oldest)."""
        self._ring.append(trace)

    @property
    def traces(self) -> List[RequestTrace]:
        """The retained traces, oldest first."""
        return list(self._ring)

    def completed(self) -> List[RequestTrace]:
        """Retained traces with every stage stamp (flow-exportable)."""
        return [trace for trace in self._ring if trace.is_complete]

    def __len__(self) -> int:
        return len(self._ring)


def add_request_flows(
    builder: ChromeTraceBuilder,
    traces: Iterable[RequestTrace],
    *,
    epoch: float,
    pid: int = HOST_PID,
) -> int:
    """Export sampled request traces as Perfetto flow arrows.

    For every complete trace this adds, in the host clock domain
    (stamps are absolute ``perf_counter``; *epoch* is the owning
    :class:`~repro.obs.trace_export.SpanRecorder`'s epoch so the
    flows line up with the broker's lane spans and the executor's
    worker spans already in *builder*):

    * a ``req<id> wait`` span on the ``loadgen`` track (enqueue →
      batch seal) and a ``req<id> handoff`` span on the
      ``serving broker`` track (batch seal → dispatch) — the two path
      segments no other track covers;
    * an async ``request <id>`` interval spanning the full e2e
      lifetime;
    * a flow chain (``s`` → ``t`` → ``t`` → ``f``) whose steps land
      *inside* those spans, the broker's ``serving lane<k>`` batch
      span, and — when the executor reported which worker evaluated
      the batch — the ``executor worker<n>`` span, so the request is
      one clickable arrow across the whole datapath.

    Shed requests get a ``req<id> SHED`` marker span on the loadgen
    track instead of a flow.  Returns the number of traces exported.
    """
    exported = 0
    for trace in traces:
        if trace.shed:
            if trace.enqueue is not None and trace.complete is not None:
                builder.add_span(
                    pid,
                    "loadgen",
                    f"req{trace.trace_id} SHED",
                    trace.enqueue - epoch,
                    trace.complete - epoch,
                    category="request",
                )
            continue
        if not trace.is_complete:
            continue
        enqueue = trace.enqueue - epoch
        seal = trace.batch_seal - epoch
        dispatch = trace.dispatch - epoch
        kernel_start = trace.kernel_start - epoch
        complete = trace.complete - epoch
        label = f"req{trace.trace_id}"
        builder.add_span(
            pid, "loadgen", f"{label} wait", enqueue, seal,
            category="request",
        )
        builder.add_span(
            pid, "serving broker", f"{label} handoff", seal, dispatch,
            category="request",
        )
        builder.add_async_span(
            pid, "requests", f"request {trace.trace_id}", enqueue, complete,
            async_id=trace.trace_id,
        )
        flow_id = trace.trace_id
        builder.add_flow(
            pid, "loadgen", label, enqueue, flow_id=flow_id, phase="s"
        )
        builder.add_flow(
            pid, "serving broker", label, seal, flow_id=flow_id, phase="t"
        )
        hops = []
        if trace.lane is not None:
            hops.append(f"serving lane{trace.lane}")
        if trace.worker_track is not None:
            hops.append(trace.worker_track)
        if not hops:  # no lane recorded: finish the arrow on the broker
            hops.append("serving broker")
        for track in hops[:-1]:
            builder.add_flow(
                pid, track, label, kernel_start, flow_id=flow_id, phase="t"
            )
        builder.add_flow(
            pid, hops[-1], label,
            kernel_start if trace.lane is not None else dispatch,
            flow_id=flow_id, phase="f",
        )
        exported += 1
    return exported

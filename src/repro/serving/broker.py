"""Asyncio request broker with adaptive micro-batching.

The paper's §V analysis says delivered inference throughput is capped
by the PCIe host link, not the accelerator — a statement about *batch*
transfers.  Live traffic does not arrive in batches: it arrives as
individual queries, and something must re-create the large transfers
the bandwidth analysis assumes without holding any single query
hostage.  That something is this broker.

:class:`MicroBatchBroker` sits between an async request API and one
persistent evaluation engine (normally a
:class:`~repro.baselines.executor.ParallelPlanExecutor`, in-process
or pooled, numpy or native backend):

* **coalescing, write-once** — requests submitted while the engine is
  busy (or within the batching window) are grouped per *query
  signature* — the ``(marginalized, missing_value)`` pair — because
  the plan kernels apply those per batch, not per row.  Each request
  row is validated **straight into a pre-allocated batch arena slot**
  (shared-memory backed when the engine exposes executor lanes), so
  the bytes a request carries are written exactly once on the whole
  serve path: no per-request allocation, no ``np.stack`` at flush, no
  copy into executor staging.  The guarantee is structural —
  ``lane.submit`` evaluates the arena in place and has no copy to
  bill — and :attr:`MicroBatchBroker.zero_copy` reports whether the
  lane path is engaged.  A batch flushes when
  it reaches ``max_batch_rows`` or when the oldest request in it has
  waited ``max_wait_ms``, whichever comes first: the two knobs of the
  batching/latency trade-off (H2PIPE and Serpens pick their batch and
  stream widths statically for the same reason — here it adapts per
  window).
* **pipelined dispatch** — a flushed batch is handed to one of
  ``n_lanes`` dispatcher threads via
  :meth:`asyncio.loop.run_in_executor`, each driving its own reentrant
  executor lane, so up to ``n_lanes`` batches are *in flight at once*
  while the event loop keeps coalescing the next ones into the spare
  arena.  Coalescing, kernel execution and result scatter overlap —
  the software analogue of the paper's many concurrent HBM streams.
  With ``n_lanes=1`` the broker degenerates to the classic
  one-batch-in-flight queueing point whose service time grows batches
  under load; with more lanes the *arena ring* (``n_lanes + 1``
  arenas) is the queueing point instead.
* **admission control + lane-aware backpressure** — the broker bounds
  the number of rows in the system (pending + in flight + waiting for
  an arena) at ``max_queue_rows``.  Beyond it, requests are shed at
  the door with :class:`~repro.errors.ServingOverloadError` and
  counted in ``serving.rejected``.  Below that bound, a request that
  finds every arena busy is *parked*: a reference to its row joins one
  FIFO deque, and the next arena release places the parked rows in
  arrival order in a single synchronous pass — the request itself
  awaits only its result, so it costs one future and one wake-up
  whether it parked or not.  Backpressure surfaces as latency first,
  shedding only past the hard bound, and
  ``serving.arena_waits``/``serving.arenas_busy`` make the distinction
  observable.
* **observability** — with a :class:`~repro.obs.metrics.MetricsRegistry`
  attached the broker records ``serving.*`` counters/gauges plus
  per-stage latency histograms (``serving.batch_form`` /
  ``queue_wait`` / ``dispatch`` / ``kernel`` / ``scatter`` / ``e2e``
  and ``serving.shed`` — the five stages partition e2e exactly); with
  a :class:`~repro.obs.trace_export.HostSpanRecorder` every dispatched
  batch records a wall-clock span on its arena's ``serving lane{k}``
  track; with a :class:`~repro.obs.rtrace.RequestTraceRecorder`
  sampled requests carry stage stamps end to end and export as
  Perfetto flow arrows, so ``repro serve --trace-out`` renders the
  overlapping batches *and* clickable per-request flows next to the
  executor's worker shards.

Results are bit-identical to calling the engine directly with the same
rows: the broker only places rows and scatters the result vector back
— it never touches the arithmetic.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, ServingError, ServingOverloadError
from repro.obs.rtrace import STAGE_HISTOGRAMS

__all__ = ["MicroBatchBroker", "BrokerStats"]

#: Query signature a pending batch coalesces under.
_Key = Tuple[Optional[Tuple[int, ...]], Optional[float]]


class BrokerStats:
    """Plain counters the broker always keeps (registry or not)."""

    __slots__ = (
        "requests",
        "rejected",
        "batches",
        "rows",
        "flush_full",
        "flush_wait",
        "flush_close",
        "arena_waits",
    )

    def __init__(self):
        self.requests = 0
        self.rejected = 0
        self.batches = 0
        self.rows = 0
        self.flush_full = 0
        self.flush_wait = 0
        self.flush_close = 0
        self.arena_waits = 0

    @property
    def mean_batch_rows(self) -> float:
        """Mean rows per dispatched batch (0.0 before the first)."""
        return self.rows / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-native snapshot of all counters."""
        return {name: getattr(self, name) for name in self.__slots__} | {
            "mean_batch_rows": self.mean_batch_rows
        }


class _Arena:
    """One slot of the batch-arena ring.

    ``view`` is the writable ``(max_batch_rows, n_variables)`` buffer
    requests are validated into; ``lane`` is the backing
    :class:`~repro.baselines.executor.ExecutorLane` when the engine
    supports the zero-copy lane protocol (then ``view`` aliases the
    lane's shared-memory arena), or ``None`` for plain lane-less
    engines.
    """

    __slots__ = ("index", "view", "lane")

    def __init__(self, index: int, view: np.ndarray, lane=None):
        self.index = index
        self.view = view
        self.lane = lane


class _PendingBatch:
    """An arena filling with rows + futures toward one engine call.

    ``enqueues``/``traces`` parallel ``futures`` but are only appended
    when the broker is timing (metrics or request tracing attached) —
    with both off, a batch carries nothing beyond the PR 9 state.
    """

    __slots__ = (
        "key", "arena", "futures", "timer",
        "enqueues", "traces", "sealed",
    )

    def __init__(self, key: _Key, arena: _Arena):
        self.key = key
        self.arena = arena
        self.futures: List[asyncio.Future] = []
        self.timer: Optional[asyncio.TimerHandle] = None
        self.enqueues: List[float] = []
        self.traces: List[Optional[object]] = []
        self.sealed = 0.0


class MicroBatchBroker:
    """Coalesce single-row async queries into adaptive micro-batches.

    Parameters
    ----------
    engine:
        The evaluation engine.  When it implements the executor lane
        protocol (``acquire_lane(capacity_rows)`` returning objects
        with ``arena``/``submit``/``release`` —
        :class:`~repro.baselines.executor.ParallelPlanExecutor` does),
        the broker's batch arenas *are* the engine's shared-memory
        lane arenas and dispatch is fully zero-copy and reentrant.
        Anything else with the executor's
        ``submit(data, *, marginalized=None, missing_value=None)``
        contract still works: rows are staged once into broker-owned
        arenas and the filled view is handed over (the engine may
        restage internally).  The broker *uses* the
        engine but does not own it — closing the broker never closes
        the engine.
    n_variables:
        Row width every request must match.  Defaults to the engine's
        ``n_variables`` attribute when it has one.
    max_batch_rows:
        Flush a pending batch as soon as it holds this many rows.
        Also each arena's capacity, so the ring pins
        ``(n_lanes + 1) * max_batch_rows * n_variables * 8`` bytes.
    max_wait_ms:
        Flush a pending batch once its oldest request has waited this
        long — the latency the broker itself may add, and therefore
        the knob to set from the SLO (leave headroom for the kernel).
    max_queue_rows:
        Bound on rows in the system (pending + dispatched + waiting
        for an arena, not yet answered).  Requests beyond it are shed
        with :class:`~repro.errors.ServingOverloadError`.
    n_lanes:
        Batches the broker keeps in flight concurrently (dispatch
        threads, and executor lanes when the engine has them).  The
        arena ring holds ``n_lanes + 1`` arenas so coalescing always
        has a free arena while every lane computes.  Default 1 — the
        PR 8 behaviour; serving sweeps default higher
        (:func:`~repro.serving.scenarios.run_serve`).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``serving.*`` counters and the ``serving.queue_rows`` /
        ``serving.arenas_busy`` gauges.
    host_tracer:
        Optional :class:`~repro.obs.trace_export.HostSpanRecorder`;
        every batch records a span (label ``batch<N> <rows>r``) on its
        arena's ``serving lane{k}`` track, Perfetto-exportable.
    rtrace:
        Optional :class:`~repro.obs.rtrace.RequestTraceRecorder`.
        Sampled requests (1-in-N, recorder-configured) carry a
        :class:`~repro.obs.rtrace.RequestTrace` through the broker and
        land in the recorder's ring with every stage-boundary stamp —
        :func:`~repro.obs.rtrace.add_request_flows` turns them into
        Perfetto flow arrows across loadgen, broker, lane and executor
        worker tracks.  With *metrics* attached the same stamps also
        feed the per-stage latency histograms (``serving.batch_form``
        / ``queue_wait`` / ``dispatch`` / ``kernel`` / ``scatter`` /
        ``e2e``, plus ``serving.shed`` for time-to-rejection).  With
        neither attached no stamps are ever taken.

    Use ``async with`` (or call :meth:`close`) so pending requests are
    flushed and the dispatch threads are joined on shutdown.
    """

    def __init__(
        self,
        engine,
        *,
        n_variables: Optional[int] = None,
        max_batch_rows: int = 512,
        max_wait_ms: float = 2.0,
        max_queue_rows: int = 16384,
        n_lanes: int = 1,
        metrics=None,
        host_tracer=None,
        rtrace=None,
    ):
        if n_variables is None:
            n_variables = getattr(engine, "n_variables", None)
        if n_variables is None:
            raise ServingError(
                "n_variables is required when the engine does not expose "
                "one (ParallelPlanExecutor does)"
            )
        if n_variables < 1:
            raise ServingError(f"n_variables must be >= 1, got {n_variables}")
        if max_batch_rows < 1:
            raise ServingError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        if max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue_rows < max_batch_rows:
            raise ServingError(
                f"max_queue_rows ({max_queue_rows}) must be >= "
                f"max_batch_rows ({max_batch_rows}); a queue smaller than "
                "one batch can never fill one"
            )
        if n_lanes < 1:
            raise ServingError(f"n_lanes must be >= 1, got {n_lanes}")
        self._engine = engine
        self._n_variables = int(n_variables)
        self.max_batch_rows = int(max_batch_rows)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_rows = int(max_queue_rows)
        self.n_lanes = int(n_lanes)
        self.stats = BrokerStats()
        self._pending: Dict[_Key, _PendingBatch] = {}
        self._inflight: set = set()
        self._queued_rows = 0
        self._closed = False
        self._batch_ids = itertools.count()
        # The arena ring: one spare beyond the lane count so the event
        # loop can always coalesce into a free arena while every
        # dispatch lane computes.  Arenas are allocated lazily (a
        # light-load broker over a lane engine pins one lane, not
        # n_lanes + 1) and pooled forever after.
        self._n_arenas = self.n_lanes + 1
        self._arena_free: List[_Arena] = []
        self._arena_count = 0
        self._arenas_busy = 0
        # Admitted rows no arena could take yet, in arrival order:
        # (key, row, future, enqueue_t, trace) — _place()'s arguments.
        self._parked: Deque[tuple] = deque()
        self._lane_api = hasattr(engine, "acquire_lane")
        # n_lanes dispatch threads: engine lanes are reentrant, so up
        # to n_lanes engine calls may interleave; each flushed batch
        # occupies one thread (and one arena) for its service time.
        self._dispatch = ThreadPoolExecutor(
            max_workers=self.n_lanes, thread_name_prefix="repro-serve"
        )
        self._host_tracer = host_tracer
        if metrics is not None:
            self._m_requests = metrics.counter("serving.requests")
            self._m_rejected = metrics.counter("serving.rejected")
            self._m_batches = metrics.counter("serving.batches")
            self._m_rows = metrics.counter("serving.rows")
            self._m_batch_seconds = metrics.counter("serving.batch_seconds")
            self._m_flush_full = metrics.counter("serving.flush_full")
            self._m_flush_wait = metrics.counter("serving.flush_wait")
            self._m_arena_waits = metrics.counter("serving.arena_waits")
            self._m_queue = metrics.gauge("serving.queue_rows")
            self._m_arenas_busy = metrics.gauge("serving.arenas_busy")
            self._h_e2e = metrics.histogram("serving.e2e")
            self._h_shed = metrics.histogram("serving.shed")
            self._h_stage = {
                name: metrics.histogram(f"serving.{name}")
                for name, _, _ in STAGE_HISTOGRAMS
            }
        else:
            self._m_requests = None
            self._m_queue = None
            self._h_e2e = None
            self._h_shed = None
            self._h_stage = None
        self._rtrace = rtrace
        # One flag guards every stamp site: with neither metrics nor a
        # request-trace recorder attached, the broker takes zero extra
        # perf_counter() readings on the request path.
        self._timing = metrics is not None or rtrace is not None

    # -- introspection ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (or started running)."""
        return self._closed

    @property
    def queued_rows(self) -> int:
        """Rows currently in the system (pending + in flight)."""
        return self._queued_rows

    @property
    def n_variables(self) -> int:
        """Row width every request must match."""
        return self._n_variables

    @property
    def zero_copy(self) -> bool:
        """True when arenas are engine lanes (no restaging anywhere)."""
        return self._lane_api

    # -- the request path -------------------------------------------------------
    async def submit(
        self,
        values,
        *,
        marginalized: Optional[Sequence[int]] = None,
        missing_value: Optional[float] = None,
    ) -> float:
        """Serve one query; resolves to its float log-likelihood.

        *values* is one sample row (``n_variables`` numbers).
        *marginalized* / *missing_value* carry the query semantics of
        :func:`~repro.spn.plan_eval.plan_log_likelihood` — ``None``/
        ``None`` is a plain likelihood query, a ``marginalized`` set
        is a marginal query, a ``missing_value`` sentinel marks
        missing-data queries.  Requests with the same signature
        coalesce into the same micro-batch; the row is written exactly
        once, into the batch arena slot it will be evaluated from.

        Raises :class:`~repro.errors.ServingOverloadError` when the
        bounded queue is full (the request was shed, not queued) and
        :class:`~repro.errors.ServingError` after :meth:`close`.
        """
        if self._closed:
            raise ServingError(
                "submit() on a closed MicroBatchBroker: close() has "
                "already flushed the queue and stopped the dispatcher"
            )
        row = self._check_row(values)
        if marginalized is not None:
            marginalized = tuple(sorted({int(v) for v in marginalized}))
        enqueue_t = time.perf_counter() if self._timing else 0.0
        trace = self._rtrace.sample() if self._rtrace is not None else None
        if trace is not None:
            trace.stamp("enqueue", enqueue_t)
        if self._m_requests is not None:
            self._m_requests.add(1)
        self.stats.requests += 1
        if self._queued_rows + 1 > self.max_queue_rows:
            self._count_shed(enqueue_t, trace)
            raise ServingOverloadError(
                f"request shed: {self._queued_rows} rows queued >= "
                f"max_queue_rows={self.max_queue_rows}"
            )
        self._set_queued(self._queued_rows + 1)

        key: _Key = (marginalized, missing_value)
        # The request's one future: its result.  Whether the row is
        # placed now or parked for an arena, the coroutine awaits this
        # and is woken exactly once, by the scatter (or a shed).
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            placed = self._place(key, row, future, enqueue_t, trace)
        except Exception:
            # Admitted (counted into the queue bound) but opening a new
            # arena failed — give the row back.
            self._set_queued(self._queued_rows - 1)
            raise
        if not placed:
            self.stats.arena_waits += 1
            if self._m_requests is not None:
                self._m_arena_waits.add(1)
            self._parked.append((key, row, future, enqueue_t, trace))
        return await future

    def _place(self, key: _Key, row, future, enqueue_t, trace) -> bool:
        """Put one admitted row into the pending batch for *key*.

        Joins the signature's pending batch, else opens one in a free
        arena; returns False (nothing changed) when there is neither —
        the caller parks the row.  The arena write here is the single
        write of the request's payload on the serve path.
        """
        batch = self._pending.get(key)
        if batch is None:
            arena = self._take_arena()
            if arena is None:
                return False
            batch = self._pending[key] = _PendingBatch(key, arena)
            if self.max_wait_ms > 0:
                batch.timer = future.get_loop().call_later(
                    self.max_wait_ms / 1e3, self._flush, key, "wait"
                )
        futures = batch.futures
        batch.arena.view[len(futures)] = row
        futures.append(future)
        if self._timing:
            batch.enqueues.append(enqueue_t)
            batch.traces.append(trace)
        if len(futures) >= self.max_batch_rows or self.max_wait_ms == 0:
            self._flush(key, "full")
        return True

    def _check_row(self, values) -> np.ndarray:
        try:
            row = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"request row is not numeric: {exc}") from None
        if row.shape != (self._n_variables,):
            raise ServingError(
                f"request row must have shape ({self._n_variables},), "
                f"got {row.shape}"
            )
        return row

    def _set_queued(self, value: int) -> None:
        self._queued_rows = value
        if self._m_queue is not None:
            self._m_queue.set(value)

    def _count_shed(self, enqueue_t: float, trace) -> None:
        """Count one request shed, at the door or while parked."""
        self.stats.rejected += 1
        if self._m_requests is not None:
            self._m_rejected.add(1)
        self._record_shed(enqueue_t, trace)

    def _record_shed(self, enqueue_t: float, trace) -> None:
        """Account one shed request: time-to-rejection + trace marker.

        Shed requests used to vanish into a bare counter, so a sweep
        point could report a great p99 while quietly refusing a third
        of its offered load — the ``serving.shed`` histogram makes the
        shed path cost (how long a doomed request held the event loop)
        first-class next to the served-path latencies.
        """
        if not self._timing:
            return
        now = time.perf_counter()
        if self._h_shed is not None:
            self._h_shed.record(max(0.0, now - enqueue_t))
        if trace is not None:
            trace.shed = True
            trace.stamp("complete", now)
            self._rtrace.add(trace)

    # -- the arena ring ---------------------------------------------------------
    def _take_arena(self) -> Optional[_Arena]:
        """A free arena, or None when the whole ring is busy."""
        if self._arena_free:
            arena = self._arena_free.pop()
        elif self._arena_count < self._n_arenas:
            arena = self._new_arena()
            if arena is None:
                return None
            self._arena_count += 1
        else:
            return None
        self._arenas_busy += 1
        if self._m_queue is not None:
            self._m_arenas_busy.set(self._arenas_busy)
        return arena

    def _new_arena(self) -> Optional[_Arena]:
        index = self._arena_count
        if not self._lane_api:
            view = np.empty(
                (self.max_batch_rows, self._n_variables), dtype=np.float64
            )
            return _Arena(index, view)
        try:
            lane = self._engine.acquire_lane(self.max_batch_rows)
        except ReproError:
            if getattr(self._engine, "closed", False):
                # A closed engine names its close() - more actionable
                # than any lane-pool message the broker could invent.
                raise
            if self._arena_count > 0:
                # Some other lane owner exhausted the executor's lane
                # pool mid-life; run with the ring we already have.
                return None
            raise ServingError(
                "the engine has no free executor lanes for the broker's "
                "batch arenas - raise the executor's max_lanes above the "
                f"broker's n_lanes={self.n_lanes} (+1 spare) or release "
                "lanes held elsewhere"
            ) from None
        return _Arena(index, lane.arena, lane)

    def _release_arena(self, arena: _Arena) -> None:
        self._arenas_busy -= 1
        if self._m_queue is not None:
            self._m_arenas_busy.set(self._arenas_busy)
        self._arena_free.append(arena)
        # Drain the parked rows in arrival order, in this one pass: no
        # task is woken to place a row.  The head can always be placed
        # (an arena was just freed); the pass ends at the first row
        # that needs an arena when the ring is busy again.
        parked = self._parked
        while parked:
            entry = parked[0]
            future = entry[2]
            if future.done():  # cancelled by its caller while parked
                parked.popleft()
                self._set_queued(self._queued_rows - 1)
                continue
            try:
                if not self._place(*entry):
                    break
            except Exception as exc:  # noqa: BLE001 - forwarded to its caller
                # Opening a new arena failed: this row's caller gets
                # the error submit() would have raised; the rest drain.
                self._set_queued(self._queued_rows - 1)
                future.set_exception(exc)
            parked.popleft()

    # -- flush + dispatch -------------------------------------------------------
    def _flush(self, key: _Key, reason: str) -> None:
        """Move one pending batch onto a dispatch lane."""
        batch = self._pending.pop(key, None)
        if batch is None:  # timer raced a full-flush; nothing left to do
            return
        if batch.timer is not None:
            batch.timer.cancel()
        if reason == "full":
            self.stats.flush_full += 1
            if self._m_requests is not None:
                self._m_flush_full.add(1)
        elif reason == "wait":
            self.stats.flush_wait += 1
            if self._m_requests is not None:
                self._m_flush_wait.add(1)
        else:
            self.stats.flush_close += 1
        if self._timing:
            # The seal: this batch's membership is final.  Everything
            # before this stamp is coalescing (batch_form), everything
            # after is the batch moving through dispatch as one unit.
            batch.sealed = time.perf_counter()
        loop = asyncio.get_running_loop()
        call = loop.run_in_executor(
            self._dispatch,
            self._run_batch,
            batch,
            len(batch.futures),
            next(self._batch_ids),
        )
        task = loop.create_task(self._finish(batch, call))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _run_batch(self, batch: _PendingBatch, rows: int, batch_id: int):
        """Dispatch-lane body: one engine call, wall-clock stamped.

        Zero-copy (lane) arenas submit by row count — the engine
        evaluates the very memory the requests were written into.
        Lane-less engines get the filled view.
        """
        marginalized, missing_value = batch.key
        arena = batch.arena
        stage: Optional[dict] = None
        t0 = time.perf_counter()
        if arena.lane is not None:
            if self._timing:
                # The executor refines kernel_start/kernel_end (and
                # names the worker span) straight into this dict.
                stage = {"dispatch": t0, "batch_id": batch_id}
                out = arena.lane.submit(
                    rows,
                    marginalized=marginalized,
                    missing_value=missing_value,
                    stamps=stage,
                )
            else:
                out = arena.lane.submit(
                    rows,
                    marginalized=marginalized,
                    missing_value=missing_value,
                )
        else:
            out = self._engine.submit(
                arena.view[:rows],
                marginalized=marginalized,
                missing_value=missing_value,
            )
        t1 = time.perf_counter()
        if self._timing:
            if stage is None:  # lane-less engine: the call is the kernel
                stage = {"dispatch": t0, "batch_id": batch_id}
            stage.setdefault("kernel_start", t0)
            stage.setdefault("kernel_end", t1)
        if self._host_tracer is not None:
            self._host_tracer.record(
                f"serving lane{arena.index}", f"batch{batch_id} {rows}r",
                t0, t1,
            )
        return out, t1 - t0, stage

    async def _finish(self, batch: _PendingBatch, call) -> None:
        """Scatter one batch's results (or failure) onto its futures."""
        try:
            out, seconds, stage = await call
        except Exception as exc:  # noqa: BLE001 - forwarded, not swallowed
            for future in batch.futures:
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, ReproError)
                        else ServingError(f"batch evaluation failed: {exc}")
                    )
        else:
            self.stats.batches += 1
            self.stats.rows += len(batch.futures)
            if self._m_requests is not None:
                self._m_batches.add(1)
                self._m_rows.add(len(batch.futures))
                self._m_batch_seconds.add(seconds)
            values = np.asarray(out, dtype=np.float64).tolist()
            for future, value in zip(batch.futures, values):
                if not future.done():
                    future.set_result(value)
            if self._timing and stage is not None:
                self._record_batch_timing(batch, stage)
        finally:
            self._set_queued(self._queued_rows - len(batch.futures))
            self._release_arena(batch.arena)

    def _record_batch_timing(self, batch: _PendingBatch, stage: dict) -> None:
        """Reduce one completed batch's stamps into histograms + traces.

        ``batch_form`` and ``e2e`` are per-request (each request has
        its own enqueue stamp); ``queue_wait``/``dispatch``/``kernel``/
        ``scatter`` are batch-wide boundaries recorded once with the
        batch's row count as weight, so every histogram weighs
        requests, not batches — that is what makes the five stage
        medians add up against the e2e median.
        """
        complete = time.perf_counter()
        sealed = batch.sealed
        dispatch = stage.get("dispatch", sealed)
        kernel_start = stage.get("kernel_start", dispatch)
        kernel_end = stage.get("kernel_end", kernel_start)
        if self._h_e2e is not None and batch.enqueues:
            hist = self._h_stage
            n = len(batch.enqueues)
            hist["queue_wait"].record(dispatch - sealed, n)
            hist["dispatch"].record(kernel_start - dispatch, n)
            hist["kernel"].record(kernel_end - kernel_start, n)
            hist["scatter"].record(complete - kernel_end, n)
            batch_form, e2e = hist["batch_form"], self._h_e2e
            for enqueue in batch.enqueues:
                batch_form.record(sealed - enqueue)
                e2e.record(complete - enqueue)
        if self._rtrace is not None:
            for trace in batch.traces:
                if trace is None:
                    continue
                trace.stamp("batch_seal", sealed)
                trace.stamp("dispatch", dispatch)
                trace.stamp("kernel_start", kernel_start)
                trace.stamp("kernel_end", kernel_end)
                trace.stamp("complete", complete)
                trace.lane = batch.arena.index
                trace.batch_id = stage.get("batch_id")
                trace.worker_track = stage.get("worker_track")
                self._rtrace.add(trace)

    # -- lifecycle --------------------------------------------------------------
    async def close(self, *, flush: bool = True) -> None:
        """Stop accepting requests and drain the broker.

        With ``flush=True`` (default) every pending batch is dispatched
        and every in-flight batch is awaited — no request that reached
        an arena is ever dropped on shutdown (requests still *waiting*
        for an arena are shed with
        :class:`~repro.errors.ServingOverloadError`; they hold no slot
        to flush).  With ``flush=False`` pending requests are rejected
        the same way and only already-dispatched batches are awaited.
        Idempotent; the engine (and its lanes) is left open for its
        owner, though the broker releases the lanes it acquired.
        """
        if self._closed:
            return
        self._closed = True
        # Parked rows go first: once they are shed, the arena releases
        # below have nothing to place into a closing broker.
        while self._parked:
            _, _, future, enqueue_t, trace = self._parked.popleft()
            self._set_queued(self._queued_rows - 1)
            if future.done():  # cancelled by its caller while parked
                continue
            future.set_exception(ServingOverloadError(
                "broker closed while the request waited for a batch arena"
            ))
            self._count_shed(enqueue_t, trace)
        for key in list(self._pending):
            if flush:
                self._flush(key, "close")
            else:
                self._reject_pending(key)
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._dispatch.shutdown(wait=True)
        for arena in self._arena_free:
            if arena.lane is not None:
                arena.lane.release()
        self._arena_free.clear()

    def _reject_pending(self, key: _Key) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        for future in batch.futures:
            if not future.done():
                future.set_exception(
                    ServingOverloadError("broker closed before dispatch")
                )
        self.stats.rejected += len(batch.futures)
        if self._m_requests is not None:
            self._m_rejected.add(len(batch.futures))
        for enqueue, trace in zip(batch.enqueues, batch.traces):
            self._record_shed(enqueue, trace)
        self._set_queued(self._queued_rows - len(batch.futures))
        self._release_arena(batch.arena)

    async def __aenter__(self) -> "MicroBatchBroker":
        """Async context entry: the broker itself."""
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Async context exit: always :meth:`close` (flushing)."""
        await self.close()

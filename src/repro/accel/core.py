"""The SPN accelerator core: Load Unit, buffers, datapath, Store Unit.

A job (programmed through the register file) streams ``n_samples``
packed single-byte feature vectors from the core's HBM channel,
pushes them through the II=1 pipelined datapath, and writes one
float64 log-likelihood per sample back — the paper's Fig. 3 pipeline.

The model advances simulated time at burst granularity with
double-buffered load/compute/store stages, and *also* computes the
real results: the input bytes come out of the channel's functional
backing store, go through the software twin of the datapath, and the
results land back in the store, so end-to-end runs are verifiable
against the pure-software reference.

The Result Buffer models the §III-B packing rule: 64-bit results are
collected until a 512-bit word is complete before the Store Unit
writes it out, so result traffic happens in 64-byte (or larger,
burst-aggregated) units.

Steady-state fast-forwarding
----------------------------
When the core's HBM channel engine is idle at job start (the core is
its sole master, §II-B) the whole load/compute/store burst schedule is
determined by the job parameters alone.  A scalar emulator
(:func:`_emulate_burst_pipeline`) re-enacts it with *exactly* the same
float operations in the same order as the discrete-event model, so its
end time is bit-identical.

The emulator runs once per job shape (sample count, sample and result
widths, clock, request overhead, bandwidth, pipeline depth) and
records a :class:`_JobSchedule`: the chain of increments that leads
from the job's start to its end, and the smallest gap it saw between
its two pending timers.  Later jobs of that shape replay the chain
from their own start, which is the same float additions in the same
order.  A replay is accepted only when the recorded gap exceeds four
times the rounding the two starts can introduce
(``4 * n * (ulp(T_recorded) + ulp(T_replay))`` for ``n`` additions);
otherwise the emulator runs again.

A fast-forwarded job is one event: :meth:`SPNAcceleratorCore.start_job`
takes the idle channel engine at once and returns a timeout at the
end time whose first callback releases the engine and settles the
channel counters and the job.  Equivalence with the burst-granular
model is asserted by ``tests/accel/test_fast_forward.py``.  Setting
``burst_granular=True`` on the core (or its device) opts out, which
the runtime does automatically when a tracer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import ulp
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.accel.memory_store import ChannelMemory
from repro.accel.registers import ExecutionMode, RegisterFile
from repro.arith.base import NumberFormat
from repro.arith.spn_eval import evaluate_spn_in_format
from repro.compiler.design import CoreSpec
from repro.errors import RuntimeConfigError
from repro.mem.hbm import HBMChannel
from repro.sim.channel import Channel
from repro.sim.engine import Engine, Event
from repro.spn.graph import SPN
from repro.spn.inference import MISSING_VALUE, log_likelihood_with_missing
from repro.units import KIB

__all__ = ["SPNAcceleratorCore", "JobResult"]

#: Load/Store Unit burst size.  64 KiB amortises the channel's
#: per-request overhead to <2% while staying far below the sample
#: buffer capacity.
BURST_BYTES = 64 * KIB

#: Double buffering between pipeline stages (ping/pong buffers).
_STAGE_DEPTH = 2


class _JobSchedule(NamedTuple):
    """One job shape's emulated burst schedule, replayable from any start.

    Every timer the emulator sets is ``t_src + K`` for the time
    ``t_src`` of the event that set it, so the job's end time is one
    chain of additions from its start: ``end = (((start + k0) + k1) +
    ...)``.  *increments* is that chain; :meth:`replay` performs the
    same additions in the same order from a new start.
    """

    #: End time of the recorded job.
    end: float
    n_reads: int
    n_writes: int
    #: The chain of increments from the job's start to *end*.
    increments: Tuple[float, ...]
    #: Timers the emulator set: a bound on every chain's length.
    n_additions: int
    #: Smallest distance seen between the two pending timers (``inf``
    #: when they were never pending together).
    gap: float

    def replay(self, start: float) -> Optional[float]:
        """The end time of this shape's job started at *start*, or
        ``None`` when rounding could have changed the schedule.

        The outcome of comparing two pending timers depends on *start*
        only through rounding.  Each of the two chains carries at most
        ``n/2 * ulp(T)`` error against its exact sum for a job ending
        at ``T`` (every value on it is <= ``T``), and the exact
        difference does not depend on *start*, so a comparison's
        computed difference moves by at most ``n * (ulp(T_recorded) +
        ulp(T_replay))`` between the recorded job and this one.  With a
        4x margin on that bound every comparison keeps its outcome (and
        no exact tie appears), so the replayed schedule is the
        emulator's and the end time is bit-identical.
        """
        end = reduce(add, self.increments, start)
        if self.gap > 4 * self.n_additions * (ulp(self.end) + ulp(end)):
            return end
        return None


def _emulate_burst_pipeline(
    n_samples: int,
    sample_bytes: int,
    result_bytes: int,
    clock_hz: float,
    request_overhead: float,
    bandwidth: float,
    pipeline_depth: int,
    start: float,
) -> Optional[_JobSchedule]:
    """Scalar re-enactment of the burst-granular load/compute/store job.

    Replays the three coroutines of :meth:`SPNAcceleratorCore._run_job`
    (loader, datapath, storer) plus the channel's single FIFO command
    engine as a plain state machine, performing the *same float
    operations in the same order* as the discrete-event model so the
    returned end time is bit-identical to ``env.now`` at job completion.

    Only two future events can ever be pending at once — the channel
    engine's in-flight transfer and the datapath's fill/compute timer —
    because every other interaction (buffer hand-offs, engine grants,
    flush decisions) happens in zero simulated time within the cascade
    of one of those two timers.  The cascades below mirror the event
    orderings of the engine exactly:

    * a transfer completion grants the oldest queued engine waiter
      *before* resuming the transfer's owner, so a queued request beats
      one issued in reaction to the completion;
    * a buffer hand-off resumes the consumer before the producer
      continues, so in a compute-done cascade the storer's flush
      request reaches the engine before the loader's unblocked read.

    If the two pending timers ever land on the exact same float time
    the equal-time cascade interleaving of the event loop would need
    sequence numbers to reproduce, so the emulator returns ``None`` and
    the caller falls back to the burst-granular model (this never
    happens for realistic parameters; the guard keeps the fast path
    provably exact).

    Each timer also carries its chain of increments from *start* (a
    ``(parent, increment)`` linked list), so the returned
    :class:`_JobSchedule` can replay the end time from another start.
    """
    samples_per_burst = max(1, BURST_BYTES // sample_bytes)
    flush_threshold = BURST_BYTES // result_bytes
    fill_delay = pipeline_depth / clock_hz

    # Channel command engine: at most one transfer in flight and one
    # queued waiter (the loader and storer are the only masters and
    # each blocks on its own transfer).
    inflight = None  # "r" | "w"
    inflight_t = 0.0
    inflight_c = None
    queued = None  # ("r" | "w", n_bytes)

    # Loader: chunk currently being read / put.
    l_chunk = min(samples_per_burst, n_samples)
    l_remaining = n_samples
    l_blocked_put = False
    buf = []  # loaded sample buffer, capacity _STAGE_DEPTH

    # Datapath.
    d_waiting = True
    d_first = True
    d_chunk = 0
    d_processed = 0
    d_phase = None  # None | "fill" | "compute"
    path_t = 0.0
    path_c = None

    # Storer.
    s_waiting = True
    s_final = False
    s_end = None
    pending = 0
    written = 0
    cq = []  # computed-results queue (unbounded in the DES)
    n_reads = 0
    n_writes = 0

    # Chain of the event being processed, timers set, smallest gap.
    cur_c = None
    n_additions = 0
    gap = float("inf")

    def start_transfer(kind, n_bytes, t):
        nonlocal inflight, inflight_t, inflight_c, n_additions
        k = request_overhead + n_bytes / bandwidth
        inflight = kind
        inflight_t = t + k
        inflight_c = (cur_c, k)
        n_additions += 1

    def start_path(phase, k, t):
        nonlocal d_phase, path_t, path_c, n_additions
        d_phase = phase
        path_t = t + k
        path_c = (cur_c, k)
        n_additions += 1

    def request_engine(kind, n_bytes, t):
        nonlocal queued
        if inflight is None:
            start_transfer(kind, n_bytes, t)
        else:
            queued = (kind, n_bytes)

    def loader_continue(t):
        nonlocal l_chunk, l_remaining, n_reads
        l_remaining -= l_chunk
        if l_remaining > 0:
            l_chunk = min(samples_per_burst, l_remaining)
            n_reads += 1
            request_engine("r", l_chunk * sample_bytes, t)

    def datapath_receive(chunk, t):
        nonlocal d_waiting, d_first, d_chunk
        d_waiting = False
        d_chunk = chunk
        if d_first:
            d_first = False
            start_path("fill", fill_delay, t)
        else:
            start_path("compute", chunk / clock_hz, t)

    def storer_issue_write(t):
        nonlocal s_waiting, n_writes
        s_waiting = False
        n_writes += 1
        request_engine("w", pending * result_bytes, t)

    def storer_receive(chunk, t):
        nonlocal pending, s_waiting, s_final
        pending += chunk
        if pending >= flush_threshold:
            storer_issue_write(t)
        elif written + pending < n_samples:
            s_waiting = True
        else:
            # Loop exits with a partial burst left: final flush.
            s_final = True
            storer_issue_write(t)

    def datapath_continue(t):
        nonlocal d_processed, d_waiting, d_chunk, d_phase, l_blocked_put
        d_processed += d_chunk
        if d_processed >= n_samples:
            d_phase = None
            return
        if buf:
            d_chunk = buf.pop(0)
            start_path("compute", d_chunk / clock_hz, t)
            if l_blocked_put:
                # The freed slot admits the blocked put; the loader
                # resumes after the datapath's timer is scheduled.
                l_blocked_put = False
                buf.append(l_chunk)
                loader_continue(t)
        else:
            d_phase = None
            d_waiting = True

    # Job start: the loader issues the first read immediately; the
    # datapath and storer block on their empty input channels.
    n_reads += 1
    request_engine("r", l_chunk * sample_bytes, start)

    while s_end is None:
        has_transfer = inflight is not None
        has_path = d_phase is not None
        if has_transfer and has_path:
            if inflight_t == path_t:
                return None  # exact tie: burst-granular cascades needed
            gap = min(gap, abs(inflight_t - path_t))
            fire_transfer = inflight_t < path_t
        elif has_transfer or has_path:
            fire_transfer = has_transfer
        else:  # pragma: no cover - would be a model bug
            raise RuntimeConfigError("fast-forward emulator deadlocked")

        if fire_transfer:
            t = inflight_t
            cur_c = inflight_c
            kind = inflight
            # Completion cascade: grant the queued waiter first.
            if queued is not None:
                queued_kind, n_bytes = queued
                queued = None
                start_transfer(queued_kind, n_bytes, t)
            else:
                inflight = None
            if kind == "r":
                # Loader resumes: hand the chunk to the datapath.
                if d_waiting:
                    datapath_receive(l_chunk, t)
                    loader_continue(t)
                elif len(buf) < _STAGE_DEPTH:
                    buf.append(l_chunk)
                    loader_continue(t)
                else:
                    l_blocked_put = True
            else:
                # Storer resumes after a flush.
                if s_final:
                    s_end = t
                    break
                written += pending
                pending = 0
                while True:
                    if written + pending < n_samples:
                        if cq:
                            pending += cq.pop(0)
                            if pending >= flush_threshold:
                                storer_issue_write(t)
                                break
                        else:
                            s_waiting = True
                            break
                    elif pending:
                        s_final = True
                        storer_issue_write(t)
                        break
                    else:
                        s_end = t
                        break
        else:
            t = path_t
            cur_c = path_c
            if d_phase == "fill":
                start_path("compute", d_chunk / clock_hz, t)
            else:
                # Compute done: hand to the storer (consumer first),
                # then continue the datapath (which may unblock the
                # loader — so a flush beats the loader's next read).
                if s_waiting:
                    storer_receive(d_chunk, t)
                else:
                    cq.append(d_chunk)
                datapath_continue(t)

    increments = []
    while cur_c is not None:
        cur_c, k = cur_c
        increments.append(k)
    increments.reverse()
    return _JobSchedule(s_end, n_reads, n_writes, tuple(increments), n_additions, gap)


@dataclass(frozen=True)
class JobResult:
    """Completion record of one accelerator job."""

    n_samples: int
    start_time: float
    end_time: float

    @property
    def elapsed(self) -> float:
        """Job wall time in simulated seconds."""
        return self.end_time - self.start_time

    @property
    def samples_per_second(self) -> float:
        """Throughput of this job alone."""
        if self.elapsed <= 0:
            return 0.0
        return self.n_samples / self.elapsed


class SPNAcceleratorCore:
    """One timed+functional SPN accelerator instance."""

    def __init__(
        self,
        env: Engine,
        index: int,
        spn: SPN,
        core_spec: CoreSpec,
        channel: HBMChannel,
        memory: ChannelMemory,
        *,
        clock_hz: float,
        n_variables: Optional[int] = None,
        compute_format: Optional[NumberFormat] = None,
        burst_granular: bool = False,
    ):
        if clock_hz <= 0:
            raise RuntimeConfigError(f"clock must be positive, got {clock_hz}")
        self.env = env
        self.index = index
        self.spn = spn
        self.core_spec = core_spec
        self.channel = channel
        self.memory = memory
        self.clock_hz = float(clock_hz)
        self.n_variables = n_variables if n_variables is not None else spn.n_variables
        self.compute_format = compute_format
        self.sample_bytes = self.n_variables  # single-byte features
        self.result_bytes = 8  # one float64 per sample
        self.registers = RegisterFile(
            {
                "n_variables": self.n_variables,
                "sample_bytes": self.sample_bytes,
                "result_bytes": self.result_bytes,
                "pipeline_depth": core_spec.pipeline_depth,
                "format_bits": 64 if compute_format is None else compute_format.bits,
                "interface_width_bits": 512,
                "clock_mhz": int(round(clock_hz / 1e6)),
            }
        )
        #: When True, always advance the event loop burst by burst even
        #: if the job qualifies for steady-state fast-forwarding.  The
        #: runtime sets this when a tracer needs burst-level spans; the
        #: equivalence tests use it to pin the reference model.
        self.burst_granular = burst_granular
        #: Recorded fast-forward schedules, one per job shape.
        self._schedules: Dict[tuple, _JobSchedule] = {}
        self._busy = False
        # Plain statistics, updated once per job, never from the
        # burst-level hot path (``SimulatedDevice`` publishes them as
        # ``pe{i}.*`` metrics).  The runtime counts the dispatch
        # overhead it pays before each job.
        self.jobs = 0
        self.total_samples = 0
        self.busy_seconds = 0.0
        self.dispatch_seconds = 0.0

    # -- configuration read-out (the runtime's §IV-B query) -----------------------
    def read_configuration(self) -> dict:
        """Query the synthesis parameters via the register file."""
        return self.registers.read_configuration()

    # -- job execution ---------------------------------------------------------------
    def start_job(
        self,
        input_addr: int,
        result_addr: int,
        n_samples: int,
        *,
        functional: bool = True,
    ) -> Event:
        """Launch a batch job; the returned event triggers with a
        :class:`JobResult` when the Store Unit has written the last
        result word.

        With ``functional=False`` only the timing model runs (no real
        bytes are computed or stored) — used by paper-scale timing
        experiments where materialising 100 M samples is pointless.

        Concurrent jobs on one core are a runtime bug, not a model
        limitation, so they raise.
        """
        if self._busy:
            raise RuntimeConfigError(f"core {self.index} is busy")
        if n_samples <= 0:
            raise RuntimeConfigError(f"n_samples must be positive, got {n_samples}")
        if self.registers.mode is not ExecutionMode.INFERENCE:
            raise RuntimeConfigError("core is in CONFIG_READOUT mode")
        self.registers.set_job(input_addr, result_addr, n_samples)
        self.registers.set_busy(True)
        self._busy = True
        if self._can_fast_forward():
            fast = self._job_schedule(n_samples)
            if fast is not None:
                end, schedule = fast
                return self._fast_forward_job(
                    input_addr, result_addr, n_samples, functional, end, schedule
                )
        done = Event(self.env)
        self.env.process(
            self._run_job(input_addr, result_addr, n_samples, functional, done),
            name=f"core{self.index}-job",
        )
        return done

    # -- functional path ------------------------------------------------------------
    def _compute(self, input_addr: int, n_samples: int) -> np.ndarray:
        raw = self.memory.read(input_addr, n_samples * self.sample_bytes)
        data = (
            np.frombuffer(raw, dtype=np.uint8)
            .reshape(n_samples, self.sample_bytes)
            .astype(np.float64)
        )
        # The reserved all-ones byte marks a missing feature; the
        # datapath's table lookup returns probability 1 for it, so the
        # core natively computes per-sample marginal queries.
        if self.compute_format is None:
            return log_likelihood_with_missing(
                self.spn, data, missing_value=MISSING_VALUE
            )
        return evaluate_spn_in_format(
            self.spn, data, self.compute_format, missing_value=MISSING_VALUE
        )

    # -- timed path -------------------------------------------------------------------
    def _can_fast_forward(self) -> bool:
        """True when this job's burst schedule is closed over the core:
        the channel's command engine is idle, so nothing else can
        contend for it.  ``burst_granular`` opts out."""
        if self.burst_granular:
            return False
        engine = self.channel._engine
        return engine.in_use == 0 and engine.queue_length == 0

    def _job_schedule(
        self, n_samples: int, start: Optional[float] = None
    ) -> Optional[Tuple[float, _JobSchedule]]:
        """End time and schedule of a job of *n_samples* starting at
        *start* (default: now).

        The first job of a shape runs the emulator and records its
        schedule; later ones replay it.  A replay that cannot be proven
        exact runs the emulator again.  ``None`` when the emulator hits
        an exact tie.
        """
        channel = self.channel
        key = (
            n_samples,
            self.sample_bytes,
            self.result_bytes,
            self.clock_hz,
            channel.request_overhead,
            channel.effective_bandwidth,
            self.core_spec.pipeline_depth,
        )
        if start is None:
            start = self.env.now
        schedule = self._schedules.get(key)
        if schedule is not None:
            end = schedule.replay(start)
            if end is not None:
                return end, schedule
        schedule = _emulate_burst_pipeline(*key, start)
        if schedule is None:
            return None
        self._schedules.setdefault(key, schedule)
        return schedule.end, schedule

    def _fast_forward_job(
        self,
        input_addr: int,
        result_addr: int,
        n_samples: int,
        functional: bool,
        end: float,
        schedule: _JobSchedule,
    ) -> Event:
        """The whole job as one event at its end time.

        The channel's command engine is held across the collapsed
        window, so any unexpected mid-window master waits instead of
        silently overlapping with traffic the schedule already
        accounts.  The event's first callback settles the job before
        any waiter resumes.
        """
        start = self.env.now
        results = self._compute(input_addr, n_samples) if functional else None
        channel = self.channel
        engine = channel._engine
        engine.seize()
        done = self.env.timeout_until(
            end, JobResult(n_samples=n_samples, start_time=start, end_time=end)
        )

        def finish(_event: Event) -> None:
            engine.release()
            self._account_fast_forward(n_samples, schedule.n_reads, schedule.n_writes)
            if results is not None:
                self.memory.write_array(result_addr, results)
            self._complete_job(n_samples, start)

        done.callbacks.append(finish)
        return done

    def _account_fast_forward(self, n_samples: int, n_reads: int, n_writes: int) -> None:
        """Credit fast-forwarded jobs' bursts to the channel: its
        engine's grants and its traffic counters."""
        channel = self.channel
        channel._engine.total_grants += n_reads + n_writes
        channel.account_fast_forward(
            n_reads, n_writes, n_samples * self.sample_bytes, n_samples * self.result_bytes
        )

    def commit_jobs(
        self,
        input_addr: int,
        result_addr: int,
        last_count: int,
        n_samples: int,
        n_reads: int,
        n_writes: int,
        job_seconds: List[float],
    ) -> None:
        """Leave the core as a run of fast-forwarded, timing-only jobs
        would, for a caller that timed them with :meth:`_job_schedule`
        and scheduled no event.

        Credits the jobs' *n_samples* samples, their bursts and each
        job's busy time (*job_seconds*, in job order), and leaves the
        last job (*last_count* samples at the given addresses) in the
        registers, finished.
        """
        self.registers.set_job(input_addr, result_addr, last_count)
        self._account_fast_forward(n_samples, n_reads, n_writes)
        self.jobs += len(job_seconds)
        self.total_samples += n_samples
        for seconds in job_seconds:
            self.busy_seconds += seconds
        self.registers.set_busy(False)

    def _run_job(
        self,
        input_addr: int,
        result_addr: int,
        n_samples: int,
        functional: bool,
        done: Event,
    ):
        """The burst-granular model: loader, datapath and storer
        coroutines against the channel, one event per burst."""
        start = self.env.now
        results = self._compute(input_addr, n_samples) if functional else None

        samples_per_burst = max(1, BURST_BYTES // self.sample_bytes)
        loaded = Channel(self.env, capacity=_STAGE_DEPTH, name=f"core{self.index}-samples")
        computed = Channel(self.env, capacity=None, name=f"core{self.index}-results")

        def loader():
            offset = 0
            remaining = n_samples
            while remaining > 0:
                chunk = min(samples_per_burst, remaining)
                n_bytes = chunk * self.sample_bytes
                yield self.channel.transfer(n_bytes, is_write=False)
                yield loaded.put(chunk)
                offset += n_bytes
                remaining -= chunk
            loaded.close()

        def datapath():
            first = True
            processed = 0
            while processed < n_samples:
                chunk = yield loaded.get()
                if first:
                    # Pipeline fill: the first result trails the first
                    # sample by the pipeline depth.
                    yield self.env.timeout(
                        self.core_spec.pipeline_depth / self.clock_hz
                    )
                    first = False
                yield self.env.timeout(chunk / self.clock_hz)  # II = 1
                yield computed.put(chunk)
                processed += chunk

        def storer():
            pending = 0
            written = 0
            write_offset = 0
            while written + pending < n_samples:
                chunk = yield computed.get()
                pending += chunk
                # Store Unit flushes once a full burst of packed
                # 512-bit result words is ready (or at job end).
                flush_threshold = BURST_BYTES // self.result_bytes
                if pending >= flush_threshold:
                    n_bytes = pending * self.result_bytes
                    yield self.channel.transfer(n_bytes, is_write=True)
                    written += pending
                    write_offset += n_bytes
                    pending = 0
            if pending:
                yield self.channel.transfer(pending * self.result_bytes, is_write=True)

        load_proc = self.env.process(loader(), name=f"core{self.index}-load")
        path_proc = self.env.process(datapath(), name=f"core{self.index}-datapath")
        store_proc = self.env.process(storer(), name=f"core{self.index}-store")
        yield self.env.all_of([load_proc, path_proc, store_proc])

        # Functional completion: results land in the backing store.
        if results is not None:
            self.memory.write_array(result_addr, results)
        self._complete_job(n_samples, start)
        done.succeed(JobResult(n_samples=n_samples, start_time=start, end_time=self.env.now))

    def _complete_job(self, n_samples: int, start: float) -> None:
        """Shared completion bookkeeping of both timing paths."""
        self.jobs += 1
        self.total_samples += n_samples
        self.busy_seconds += self.env.now - start
        self._busy = False
        self.registers.set_busy(False)

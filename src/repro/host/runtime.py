"""The multi-threaded inference runtime (§IV-B).

Execution scheme, exactly as the paper describes it:

* a compute job is broken into **sub-jobs** according to a
  user-specified block size;
* each **control thread** performs the same sequence: transfer a block
  to HBM, invoke the SPN accelerator and wait, then trigger the
  result transfer back;
* assigning **multiple control threads to one accelerator** overlaps
  transfers with computation (thread B transfers block n+1 while
  thread A waits on block n);
* the runtime **queries the device and the accelerators** for their
  parameters (register-file config read-out) instead of requiring the
  user to supply them.

Control threads run as DES processes, so their interleaving happens
in simulated time; the device memory manager they call is the real
thread-safe allocator from :mod:`repro.host.memory_manager`.  A
timing-only run with one control thread per PE, static scheduling and
no observer has one shared resource, the DMA engine, and every job
fast-forwards; such a run is computed without the event loop, as a fold
over the order in which the DMA engine receives its transfers
(:meth:`InferenceRuntime._fold`), and the DES is its oracle.

The per-sub-job dispatch overhead (register writes, doorbell,
completion interrupt, thread wake-up) occupies the accelerator between
jobs; its value is calibrated to the paper's single-core NIPS10
end-to-end anchor of 133,139,305 samples/s (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.accel.registers import ExecutionMode
from repro.errors import AllocationError, RuntimeConfigError
from repro.host.device import SimulatedDevice
from repro.sim.engine import Event
from repro.sim.resource import SimResource
from repro.units import MIB
from repro.workloads.datasets import encode_samples

if TYPE_CHECKING:  # the recorder is only annotated: `import repro` stays off repro.obs
    from repro.obs.trace_export import SpanRecorder

__all__ = ["InferenceJobConfig", "RunStatistics", "InferenceRuntime", "JOB_DISPATCH_OVERHEAD"]

#: Per-sub-job dispatch cost in seconds, PE-exclusive (see module doc).
JOB_DISPATCH_OVERHEAD = 86e-6


@dataclass(frozen=True)
class InferenceJobConfig:
    """User-visible knobs of a runtime execution."""

    #: Input bytes per sub-job block (the paper's block size; its
    #: benchmarks use 1 MiB blocks, matching the HBM saturation size).
    block_bytes: int = 1 * MIB
    #: Control threads per accelerator (the paper uses 1 or 2).
    threads_per_pe: int = 1
    #: Block scheduling: "static" deals blocks to PEs round-robin up
    #: front (the paper's scheme); "shared" lets control threads pull
    #: from one global queue, balancing uneven tails automatically.
    scheduling: str = "static"

    def __post_init__(self):
        if self.block_bytes < 1:
            raise RuntimeConfigError(f"block_bytes must be >= 1, got {self.block_bytes}")
        if self.threads_per_pe < 1:
            raise RuntimeConfigError(
                f"threads_per_pe must be >= 1, got {self.threads_per_pe}"
            )
        if self.scheduling not in ("static", "shared"):
            raise RuntimeConfigError(
                f"scheduling must be 'static' or 'shared', got {self.scheduling!r}"
            )


@dataclass
class RunStatistics:
    """Timing and traffic accounting of one runtime execution."""

    n_samples: int = 0
    elapsed_seconds: float = 0.0
    n_blocks: int = 0
    samples_per_pe: Dict[int, int] = field(default_factory=dict)
    bytes_to_device: int = 0
    bytes_from_device: int = 0

    @property
    def samples_per_second(self) -> float:
        """End-to-end throughput including host transfers."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_samples / self.elapsed_seconds


class InferenceRuntime:
    """Orchestrates block-wise batch inference on a simulated device."""

    def __init__(
        self,
        device: SimulatedDevice,
        config: Optional[InferenceJobConfig] = None,
        *,
        tracer: Optional[SpanRecorder] = None,
    ):
        self.device = device
        self.config = config or InferenceJobConfig()
        #: Optional :class:`~repro.obs.trace_export.SpanRecorder`; when
        #: set, every DMA transfer and PE job is recorded in simulated
        #: seconds so overlap can be inspected/rendered.
        self.tracer = tracer
        # Self-configuration: query PE 0's register file (§IV-B).
        pe_config = device.pe_configuration(0)
        self.n_variables = pe_config["n_variables"]
        self.sample_bytes = pe_config["sample_bytes"]
        self.result_bytes = pe_config["result_bytes"]
        self.samples_per_block = max(1, self.config.block_bytes // self.sample_bytes)

    # -- public API -----------------------------------------------------------------
    def run(self, data: np.ndarray) -> tuple:
        """Run inference over *data*, returning (results, statistics).

        *data* is a ``(n_samples, n_variables)`` integer matrix; the
        result is the ``(n_samples,)`` float64 log-likelihood vector in
        input order, computed by the simulated accelerators.
        """
        data = np.asarray(data)
        # Validate against the PE's *variable* count, not its encoded
        # sample byte count: a format where one variable encodes to
        # more than one byte makes the two differ.
        if data.ndim != 2 or data.shape[1] != self.n_variables:
            raise RuntimeConfigError(
                f"data must be (n, {self.n_variables}) — one column per "
                f"SPN variable — got {data.shape}"
            )
        results = np.empty(data.shape[0], dtype=np.float64)
        stats = self._execute(data.shape[0], data=data, results=results)
        return results, stats

    def run_timing_only(self, n_samples: int) -> RunStatistics:
        """Run the timing model for *n_samples* without real payloads.

        Used for paper-scale experiments (100 M samples) where
        materialising data would dominate; all timing behaviour is
        identical to :meth:`run`.
        """
        if n_samples < 1:
            raise RuntimeConfigError(f"n_samples must be >= 1, got {n_samples}")
        return self._execute(n_samples, data=None, results=None)

    def run_on_device_only(self, n_samples: int) -> RunStatistics:
        """Measure on-device execution with host transfers *excluded*.

        This is the left panel of the paper's Fig. 4: "we disregarded
        the host-to-device data-transfer times and only measured the
        on-device computation including the HBM accesses."  Jobs are
        dispatched back to back per PE with the data assumed resident
        in HBM.
        """
        if n_samples < 1:
            raise RuntimeConfigError(f"n_samples must be >= 1, got {n_samples}")
        return self._execute(n_samples, data=None, results=None, transfers=False)

    # -- orchestration ----------------------------------------------------------------
    def _execute(
        self,
        n_samples: int,
        data: Optional[np.ndarray],
        results: Optional[np.ndarray],
        transfers: bool = True,
    ) -> RunStatistics:
        device = self.device
        env = device.env
        n_pes = device.n_pes
        stats = RunStatistics(n_samples=n_samples)

        # Build the global block list and deal it to PEs round-robin.
        per_block = self.samples_per_block
        blocks = [  # (start_sample, n_block_samples)
            (start, min(per_block, n_samples - start))
            for start in range(0, n_samples, per_block)
        ]
        stats.n_blocks = len(blocks)
        queues: List[List[tuple]] = [blocks[pe::n_pes] for pe in range(n_pes)]

        dma_before = (device.dma.bytes_to_device, device.dma.bytes_from_device)
        start_time = env.now
        if not (data is None and self._can_fold() and self._fold(queues, transfers, stats)):
            self._simulate(blocks, queues, data, results, transfers, stats)
        stats.elapsed_seconds = env.now - start_time
        stats.bytes_to_device = device.dma.bytes_to_device - dma_before[0]
        stats.bytes_from_device = device.dma.bytes_from_device - dma_before[1]
        return stats

    def _can_fold(self) -> bool:
        """True when nothing but the DMA engine couples the run's PEs and
        every job will be fast-forwarded, so :meth:`_fold` can time it."""
        device = self.device
        return (
            self.tracer is None
            and device.metrics is None
            and self.config.threads_per_pe == 1
            and self.config.scheduling == "static"
            and device.env.peek() == float("inf")
            and all(
                not core.registers.busy
                and core.registers.mode is ExecutionMode.INFERENCE
                and core._can_fast_forward()
                for core in device.cores
            )
        )

    def _fold(self, queues: List[List[tuple]], transfers: bool, stats: RunStatistics) -> bool:
        """Time a timing-only run without the event loop, as a fold over
        the order in which the DMA engine receives its transfers.

        With one control thread per PE a PE's blocks form a chain: H2D
        transfer, dispatch, the fast-forwarded job, D2H transfer.  The
        only state the chains share is the DMA engine, so a heap holds
        just the events that reserve it (a block's start issues its H2D
        transfer, a job's end its D2H transfer) and pops them in time
        order, the order the event loop reaches them.  Each job's end is
        ``_job_schedule`` at the time the dispatch timeout would fire,
        the same float operations as the event-driven run; without
        transfers the chains share nothing and fold one by one.

        At an exact time tie between two reserving events (other than
        the shared start, where the control threads run in PE order)
        the event loop's order would depend on heap sequence numbers.
        The fold then gives up, as it does when a job has no schedule or
        a block's buffers do not fit: it commits nothing and returns
        False, and the event-driven run (:meth:`_simulate`, the fold's
        oracle) runs instead.  On success it leaves the device, the
        clock and *stats* as the event-driven run would.
        """
        device = self.device
        env = device.env
        dma = device.dma
        cores = device.cores
        sample_bytes = self.sample_bytes
        result_bytes = self.result_bytes
        start = env.now
        # A block frees both its buffers before the next one allocates,
        # so every block of a PE gets the addresses a lone allocation
        # of its size gets; probing them also finds blocks that cannot fit.
        last_buffers = {}
        try:
            for pe, queue in enumerate(queues):
                for _, count in (queue[:1] + queue[-1:]):
                    input_addr = device.alloc(pe, count * sample_bytes)
                    try:
                        result_addr = device.alloc(pe, count * result_bytes)
                    finally:
                        device.free(pe, input_addr)
                    device.free(pe, result_addr)
                    last_buffers[pe] = (input_addr, result_addr, count)
        except AllocationError:
            return False
        # Job schedules the fold records stay: up to a give-up it times
        # each core's jobs at the starts, and in the order, the DES does.
        checkpoint = dma.checkpoint()
        tallies = [[0, 0, []] for _ in cores]  # reads, writes, job seconds per PE

        def job_end(pe: int, count: int, ready: float) -> Optional[float]:
            """End of a block's job whose input is on the device at *ready*."""
            begin = ready + JOB_DISPATCH_OVERHEAD
            job = cores[pe]._job_schedule(count, start=begin)
            if job is None:
                return None
            end, schedule = job
            tally = tallies[pe]
            tally[0] += schedule.n_reads
            tally[1] += schedule.n_writes
            tally[2].append(end - begin)
            return end

        def run_end() -> Optional[float]:
            """When the last block completes, or None to give up."""
            finish = start
            if not transfers:
                for pe, queue in enumerate(queues):
                    t = start
                    for _, count in queue:
                        t = job_end(pe, count, t)
                        if t is None:
                            return None
                    finish = max(finish, t)
                return finish
            position = [0] * len(queues)
            # (time, pe, issues H2D): at the shared start, in PE order.
            heap = [(start, pe, True) for pe, queue in enumerate(queues) if queue]
            last = start
            while heap:
                t, pe, issues_h2d = heappop(heap)
                if t == last and t != start:
                    return None
                last = t
                count = queues[pe][position[pe]][1]
                if issues_h2d:
                    end = job_end(pe, count, dma.reserve(count * sample_bytes, True, t))
                    if end is None:
                        return None
                    heappush(heap, (end, pe, False))
                    continue
                done = dma.reserve(count * result_bytes, False, t)
                position[pe] += 1
                if position[pe] < len(queues[pe]):
                    heappush(heap, (done, pe, True))
                else:
                    finish = max(finish, done)
            return finish

        finish = run_end()
        if finish is None:
            dma.rollback(checkpoint)
            return False
        for pe, queue in enumerate(queues):
            if queue:
                n_samples = sum(count for _, count in queue)
                stats.samples_per_pe[pe] = n_samples
                cores[pe].commit_jobs(*last_buffers[pe], n_samples, *tallies[pe])
                for _ in queue:
                    cores[pe].dispatch_seconds += JOB_DISPATCH_OVERHEAD
        env.run(until=finish)
        return True

    def _simulate(
        self,
        blocks: List[tuple],
        queues: List[List[tuple]],
        data: Optional[np.ndarray],
        results: Optional[np.ndarray],
        transfers: bool,
        stats: RunStatistics,
    ) -> None:
        """Run the blocks as DES control threads, one process each."""
        device = self.device
        env = device.env
        n_pes = device.n_pes
        pe_locks = [SimResource(env, 1, name=f"pe{i}-lock") for i in range(n_pes)]
        tracer = self.tracer
        shared_queue = list(reversed(blocks)) if self.config.scheduling == "shared" else None

        # Allocation back-pressure: a control thread that cannot get its
        # buffers while sibling threads hold the PE's memory parks on
        # this list and is woken by the next free on the same PE.
        free_waiters: List[List[Event]] = [[] for _ in range(n_pes)]

        def free_buffer(pe: int, address: int) -> None:
            device.free(pe, address)
            waiters = free_waiters[pe]
            if waiters:
                for waiter in waiters:
                    waiter.succeed(None)
                waiters.clear()

        def block_source(pe: int, my_blocks: List[tuple]):
            """Static: iterate the dealt list; shared: pop the queue."""
            if shared_queue is None:
                yield from my_blocks
            else:
                while shared_queue:
                    yield shared_queue.pop()

        def control_thread(pe: int, my_blocks: List[tuple]):
            for block in block_source(pe, my_blocks):
                start_sample, count = block
                input_bytes = count * self.sample_bytes
                result_bytes = count * self.result_bytes
                # Allocation can fail transiently when sibling threads
                # hold the PE's memory; retiring would strand the block
                # (and, under shared scheduling, could fail the whole
                # run even though retrying after the next free would
                # succeed).  Instead the thread parks until a sibling
                # frees and retries.  Only a genuinely impossible
                # request — the allocator is empty and the buffers
                # still do not fit — fails loudly.
                while True:
                    input_addr = None
                    try:
                        input_addr = device.alloc(pe, input_bytes)
                        result_addr = device.alloc(pe, result_bytes)
                        break
                    except AllocationError:
                        if input_addr is not None:
                            free_buffer(pe, input_addr)
                        if device.memory_manager.allocator(pe).bytes_allocated == 0:
                            # No sibling holds memory, so no future
                            # free can help: the block cannot fit.
                            raise
                        waiter = Event(env)
                        free_waiters[pe].append(waiter)
                        yield waiter
                try:
                    mark = env.now
                    if data is not None:
                        payload = encode_samples(
                            data[start_sample: start_sample + count]
                        )
                        yield device.copy_to_device(pe, input_addr, payload)
                    elif transfers:
                        yield device.dma_h2d_timed(pe, input_bytes)
                    if tracer is not None and (transfers or data is not None):
                        tracer.record("dma h2d", f"pe{pe}b{start_sample}", mark, env.now)
                    # The PE is exclusive: dispatch overhead + job.  An
                    # idle lock is taken at once; only a sibling thread's
                    # hold costs a grant event.
                    lock = pe_locks[pe]
                    if lock.in_use:
                        yield lock.request()
                    else:
                        lock.seize()
                    try:
                        mark = env.now
                        device.cores[pe].dispatch_seconds += JOB_DISPATCH_OVERHEAD
                        yield env.timeout(JOB_DISPATCH_OVERHEAD)
                        yield device.launch(
                            pe,
                            input_addr,
                            result_addr,
                            count,
                            functional=data is not None,
                        )
                        if tracer is not None:
                            tracer.record(f"pe{pe}", f"b{start_sample}", mark, env.now)
                    finally:
                        lock.release()
                    mark = env.now
                    if data is not None:
                        raw = yield device.copy_from_device(pe, result_addr, result_bytes)
                        results[start_sample: start_sample + count] = np.frombuffer(
                            raw, dtype=np.float64
                        )
                    elif transfers:
                        yield device.dma_d2h_timed(pe, result_bytes)
                    if tracer is not None and (transfers or data is not None):
                        tracer.record("dma d2h", f"pe{pe}b{start_sample}", mark, env.now)
                finally:
                    free_buffer(pe, input_addr)
                    free_buffer(pe, result_addr)
                stats.samples_per_pe[pe] = stats.samples_per_pe.get(pe, 0) + count

        threads = []
        for pe in range(n_pes):
            # Deal each PE's blocks across its control threads (static
            # scheduling); shared scheduling ignores the dealt share
            # and pulls from the global queue instead.
            for thread_index in range(self.config.threads_per_pe):
                share = queues[pe][thread_index:: self.config.threads_per_pe]
                if share or (shared_queue is not None and blocks):
                    threads.append(
                        env.process(
                            control_thread(pe, share),
                            name=f"ctl-pe{pe}-t{thread_index}",
                        )
                    )

        # Burst-level spans only exist when the cores advance burst by
        # burst, so a tracer forces the granular model for this run.
        forced_granular = []
        if tracer is not None:
            for core in device.cores:
                if not core.burst_granular:
                    core.burst_granular = True
                    forced_granular.append(core)
        try:
            done = env.all_of(threads)
            env.run(until_event=done)
        finally:
            for core in forced_granular:
                core.burst_granular = False
        processed = sum(stats.samples_per_pe.values())
        if processed != stats.n_samples:
            # Should be unreachable now that control threads wait out
            # transient allocation failures, but kept as a loud
            # invariant against silently under-reporting samples.
            raise AllocationError(
                f"runtime processed {processed} of {stats.n_samples} samples; "
                f"{len(shared_queue) if shared_queue else 0} block(s) left "
                "unclaimed after allocation failures"
            )

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

Control threads are modelled as DES processes so their interleaving
happens in simulated time; the device memory manager they call is the
real thread-safe allocator from :mod:`repro.host.memory_manager`.

The per-sub-job dispatch overhead (register writes, doorbell,
completion interrupt, thread wake-up) occupies the accelerator between
jobs; its value is calibrated to the paper's single-core NIPS10
end-to-end anchor of 133,139,305 samples/s (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

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
        blocks = []  # (start_sample, n_block_samples)
        start = 0
        while start < n_samples:
            count = min(self.samples_per_block, n_samples - start)
            blocks.append((start, count))
            start += count
        stats.n_blocks = len(blocks)
        queues: List[List[tuple]] = [[] for _ in range(n_pes)]
        for index, block in enumerate(blocks):
            queues[index % n_pes].append(block)

        pe_locks = [SimResource(env, 1, name=f"pe{i}-lock") for i in range(n_pes)]
        dma_before = (device.dma.bytes_to_device, device.dma.bytes_from_device)

        tracer = self.tracer
        metrics = device.metrics
        dispatch_counters = (
            [metrics.counter(f"pe{i}.dispatch_seconds") for i in range(n_pes)]
            if metrics is not None
            else None
        )
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
                    # The PE is exclusive: dispatch overhead + job.
                    grant = pe_locks[pe].request()
                    yield grant
                    try:
                        mark = env.now
                        if dispatch_counters is not None:
                            dispatch_counters[pe].add(JOB_DISPATCH_OVERHEAD)
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
                        pe_locks[pe].release()
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
            start_time = env.now
            done = env.all_of(threads)
            env.run(until_event=done)
        finally:
            for core in forced_granular:
                core.burst_granular = False
        stats.elapsed_seconds = env.now - start_time
        stats.bytes_to_device = device.dma.bytes_to_device - dma_before[0]
        stats.bytes_from_device = device.dma.bytes_from_device - dma_before[1]
        processed = sum(stats.samples_per_pe.values())
        if processed != n_samples:
            # Should be unreachable now that control threads wait out
            # transient allocation failures, but kept as a loud
            # invariant against silently under-reporting samples.
            raise AllocationError(
                f"runtime processed {processed} of {n_samples} samples; "
                f"{len(shared_queue) if shared_queue else 0} block(s) left "
                "unclaimed after allocation failures"
            )
        return stats

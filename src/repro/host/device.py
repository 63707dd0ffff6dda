"""A TaPaSCo-like simulated device façade.

Bundles everything the runtime needs behind one object: the DES
engine, the HBM subsystem with per-channel functional backing stores,
N accelerator PEs (one HBM channel each, §IV-A), the shared DMA
engine, and the device memory manager.  The API mirrors the TaPaSCo
operations the paper's runtime uses: enumerate PEs, query their
configuration, allocate/copy device memory, launch jobs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.accel.core import SPNAcceleratorCore
from repro.accel.memory_store import ChannelMemory
from repro.arith.base import NumberFormat
from repro.compiler.design import AcceleratorDesign
from repro.errors import RuntimeConfigError
from repro.host.memory_manager import DeviceMemoryManager
from repro.host.pcie import DmaEngine
from repro.mem.hbm import HBMSubsystem
from repro.platforms.specs import HBMSpec, HBM_XUPVVH, PCIE_GEN3_X16, PCIeSpec
from repro.sim.engine import Engine, Event

__all__ = ["SimulatedDevice"]


class _CrossbarPort:
    """Adapter presenting one crossbar-routed path as a channel.

    Used by the crossbar ablation: core *i* keeps its AXI port *i* but
    its buffers live in a *different* channel's address slice, so every
    access pays the crossbar (latency + shared-switch bandwidth) —
    the configuration the paper measures §II-B's penalty against and
    deliberately avoids.
    """

    def __init__(self, subsystem: HBMSubsystem, port: int, target_channel: int):
        self._subsystem = subsystem
        self.port = port
        self.target_channel = target_channel
        self._base = target_channel * subsystem.spec.channel_capacity_bytes

    def transfer(self, n_bytes: int, *, is_write: bool = False) -> Event:
        return self._subsystem.transfer(
            self.port, self._base, n_bytes, is_write=is_write
        )


class SimulatedDevice:
    """The composed FPGA card: PEs + HBM + DMA, ready for the runtime."""

    def __init__(
        self,
        design: AcceleratorDesign,
        *,
        hbm_spec: HBMSpec = HBM_XUPVVH,
        pcie_spec: PCIeSpec = PCIE_GEN3_X16,
        compute_format: Optional[NumberFormat] = None,
        crossbar: bool = False,
        burst_granular: bool = False,
        metrics=None,
    ):
        if design.n_cores > hbm_spec.n_channels:
            raise RuntimeConfigError(
                f"{design.n_cores} cores need {design.n_cores} HBM channels; "
                f"the device has {hbm_spec.n_channels}"
            )
        self.design = design
        self.env = Engine()
        self.crossbar = crossbar
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; when
        #: set, it publishes every subsystem's statistics without
        #: perturbing the simulated timings.
        self.metrics = metrics
        self.hbm = HBMSubsystem(self.env, hbm_spec, crossbar=crossbar)
        self.dma = DmaEngine(self.env, pcie_spec)
        self.memory_manager = DeviceMemoryManager(
            n_blocks=design.n_cores,
            block_capacity=hbm_spec.channel_capacity_bytes,
        )
        self.memories: List[ChannelMemory] = [
            ChannelMemory(hbm_spec.channel_capacity_bytes)
            for _ in range(design.n_cores)
        ]
        spn = design.core.spn
        if crossbar:
            # Worst-case routed mapping: core i's buffers live behind
            # channel (i+1) mod N, so all traffic crosses the switch.
            memory_paths = [
                _CrossbarPort(self.hbm, index, (index + 1) % design.n_cores)
                for index in range(design.n_cores)
            ]
        else:
            memory_paths = [self.hbm.channels[index] for index in range(design.n_cores)]
        self.cores: List[SPNAcceleratorCore] = [
            SPNAcceleratorCore(
                self.env,
                index,
                spn,
                design.core,
                memory_paths[index],
                self.memories[index],
                clock_hz=design.clock_mhz * 1e6,
                compute_format=compute_format,
                burst_granular=burst_granular,
            )
            for index in range(design.n_cores)
        ]
        if metrics is not None:
            self._register_stats(metrics)

    def _register_stats(self, metrics) -> None:
        """Publish the components' statistics fields in *metrics*, which
        reads them when it is read.  The HBM queue depth, a time-weighted
        level, is the one instrument a channel updates itself."""
        for channel in self.hbm.channels:
            prefix = f"hbm.ch{channel.index}"
            metrics.register_stats(channel, prefix, (
                "requests", "bytes_read", "bytes_written", "busy_seconds",
                "refresh_stall_seconds",
            ), gauges={"plateau_bandwidth": ("plateau_bandwidth", "plateau_bandwidth")})
            channel.queue_depth = metrics.time_stat(prefix + ".queue_depth")
        metrics.register_stats(self.dma, "dma", {
            "requests_h2d": "requests_h2d", "requests_d2h": "requests_d2h",
            "bytes_h2d": "bytes_to_device", "bytes_d2h": "bytes_from_device",
            "busy_seconds": "busy_seconds",
        })
        for index in range(self.memory_manager.n_blocks):
            metrics.register_stats(
                self.memory_manager.allocator(index), f"mem.block{index}",
                ("allocs", "frees", "alloc_failures"),
                gauges={"allocated_bytes": ("bytes_allocated", "peak_bytes_allocated")},
            )
        for core in self.cores:
            metrics.register_stats(core, f"pe{core.index}", {
                "jobs": "jobs", "samples": "total_samples",
                "busy_seconds": "busy_seconds", "dispatch_seconds": "dispatch_seconds",
            })

    def attach_tracer(self, tracer) -> None:
        """Attach a span tracer to the device's HBM channels.

        Each channel then records a span per request on its
        ``hbm ch{i}`` track (simulated clock), which the Perfetto
        exporter renders next to the runtime's DMA/PE tracks.  Purely
        observational — recording only reads ``env.now``, so simulated
        timings are unchanged.
        """
        for channel in self.hbm.channels:
            channel.tracer = tracer

    # -- TaPaSCo-like API -------------------------------------------------------
    @property
    def n_pes(self) -> int:
        """Number of processing elements (accelerator cores)."""
        return len(self.cores)

    def pe_configuration(self, pe: int) -> dict:
        """Query a PE's synthesis parameters via its register file."""
        return self._core(pe).read_configuration()

    def alloc(self, pe: int, n_bytes: int) -> int:
        """Allocate device memory in the PE's dedicated HBM block."""
        return self.memory_manager.alloc(pe, n_bytes)

    def free(self, pe: int, address: int) -> None:
        """Free device memory in the PE's dedicated HBM block."""
        self.memory_manager.free(pe, address)

    def copy_to_device(self, pe: int, address: int, payload: bytes) -> Event:
        """DMA *payload* into the PE's HBM block; yields on completion.

        Functional write happens on completion, in a callback that runs
        before any waiter resumes, so that a job launched after yielding
        this event sees the data.
        """
        done = self.dma.copy_to_device(len(payload))
        memory = self.memories[pe]
        done.callbacks.append(lambda _event: memory.write(address, payload))
        return done

    def dma_h2d_timed(self, pe: int, n_bytes: int) -> Event:
        """Timing-only host-to-device transfer (shared DMA engine)."""
        return self.dma.copy_to_device(n_bytes)

    def dma_d2h_timed(self, pe: int, n_bytes: int) -> Event:
        """Timing-only device-to-host transfer (shared DMA engine)."""
        return self.dma.copy_from_device(n_bytes)

    def copy_from_device(self, pe: int, address: int, n_bytes: int) -> Event:
        """DMA out of the PE's HBM block; yields with the bytes.

        The bytes are read on completion, by a callback that runs before
        any waiter resumes and sets the value they resume with.
        """
        done = self.dma.copy_from_device(n_bytes)
        memory = self.memories[pe]

        def read(event: Event) -> None:
            event._value = memory.read(address, n_bytes)

        done.callbacks.append(read)
        return done

    def launch(
        self,
        pe: int,
        input_addr: int,
        result_addr: int,
        n_samples: int,
        *,
        functional: bool = True,
    ) -> Event:
        """Start a job on *pe*; yields with its JobResult."""
        return self._core(pe).start_job(
            input_addr, result_addr, n_samples, functional=functional
        )

    def _core(self, pe: int) -> SPNAcceleratorCore:
        if not 0 <= pe < len(self.cores):
            raise RuntimeConfigError(f"PE {pe} out of range 0..{len(self.cores) - 1}")
        return self.cores[pe]

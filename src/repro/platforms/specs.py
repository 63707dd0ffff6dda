"""Device, memory-system and interconnect specifications.

All constants here are either quoted directly from the paper / vendor
documentation (device budgets, HBM channel counts and clocks, PCIe
limits) or calibrated once against the paper's anchor measurements and
frozen (noted per constant; DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.compiler.design import PlatformResources
from repro.compiler.resources import DeviceResources, ResourceVector
from repro.units import GB, GIB, MHZ

__all__ = [
    "VU37P",
    "VU9P_F1",
    "XUPVVH_HBM_PLATFORM",
    "AWS_F1_PLATFORM",
    "HBMSpec",
    "HBM_XUPVVH",
    "PCIeSpec",
    "PCIE_GEN3_X16",
    "PCIE_GEN4_X16",
    "PCIE_GEN5_X16",
    "PCIE_GEN6_X16",
    "PCIE_GENERATIONS",
]

# ---------------------------------------------------------------------------
# devices — budgets from Table I's "Available" row
# ---------------------------------------------------------------------------

#: Xilinx Virtex UltraScale+ VU37P (Bittware XUP-VVH), HBM-capable.
VU37P = DeviceResources(
    name="xcvu37p",
    budget=ResourceVector(
        luts_logic=1_304_000,
        luts_mem=601_000,
        registers=2_607_000,
        bram=2016,
        dsp=9024,
    ),
)

#: Xilinx Virtex UltraScale+ VU9P as exposed on AWS F1 (no HBM).
VU9P_F1 = DeviceResources(
    name="xcvu9p-f1",
    budget=ResourceVector(
        luts_logic=1_182_000,
        luts_mem=592_000,
        registers=2_364_000,
        bram=2160,
        dsp=6840,
    ),
)

# ---------------------------------------------------------------------------
# platform resource compositions (calibrated against Table I)
# ---------------------------------------------------------------------------

#: This work's platform: TaPaSCo infrastructure, QDMA-class PCIe DMA,
#: per-core AXI interconnect (width/clock/protocol conversion) and
#: register slices; HBM controllers are hard IP (zero soft logic).
#: Base/infra constants calibrated so 4-core NIPS10..NIPS40 designs
#: reproduce Table I's "New" columns.
XUPVVH_HBM_PLATFORM = PlatformResources(
    device=VU37P,
    base_infrastructure=ResourceVector(
        luts_logic=90_000,
        luts_mem=8_000,
        registers=123_000,
        bram=38,
        dsp=0,
    ),
    per_core_memory_path=ResourceVector(
        luts_logic=3_000,
        luts_mem=500,
        registers=6_000,
        bram=0,
        dsp=0,
    ),
    memory_controller=ResourceVector(),  # HBM controllers are hardened
    soft_memory_controllers=False,
    target_clock_mhz=225.0,
)

#: Prior work's AWS F1 platform [8]: mandatory shell plus soft DDR4
#: controllers in the custom logic region.  Calibrated against Table
#: I's "[8]" columns; the shell + controllers dominate the base cost
#: (the paper: "all designs targeting the F1 instances have to include
#: a shell for the host interface, which also incurs a resource
#: overhead").
AWS_F1_PLATFORM = PlatformResources(
    device=VU9P_F1,
    base_infrastructure=ResourceVector(
        luts_logic=95_000,
        luts_mem=5_000,
        registers=128_000,
        bram=180,
        dsp=0,
    ),
    per_core_memory_path=ResourceVector(
        luts_logic=2_500,
        luts_mem=400,
        registers=5_000,
        bram=0,
        dsp=0,
    ),
    memory_controller=ResourceVector(
        luts_logic=28_000,
        luts_mem=1_500,
        registers=30_000,
        bram=25,
        dsp=0,
    ),
    soft_memory_controllers=True,
    target_clock_mhz=250.0,
)

#: Prior work's per-core infrastructure differs from this work's: its
#: buffers used BRAM more heavily and LUT-memory less (Table I shows
#: the old design with *fewer* LUTs-as-memory but far more BRAM).
F1_CORE_INFRASTRUCTURE = ResourceVector(
    luts_logic=9_000,
    luts_mem=3_000,
    registers=22_000,
    bram=24,
    dsp=0,
)


# ---------------------------------------------------------------------------
# HBM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HBMSpec:
    """Geometry and speed of an FPGA HBM subsystem (§II-B)."""

    #: Independent 256-bit pseudo-channels exposed as AXI3 ports.
    n_channels: int
    #: Stacks (each holding half the channels).
    n_stacks: int
    #: Capacity in bytes.
    capacity_bytes: int
    #: HBM-side AXI clock in Hz (the 450 MHz the paper quotes).
    channel_clock_hz: float
    #: Channel data width in bits.
    channel_width_bits: int
    #: Vendor-quoted aggregate peak bandwidth in bytes/s (460 GB/s).
    theoretical_bandwidth: float
    #: Measured practical per-channel read+write ceiling, bytes/s
    #: (Fig. 2 plateau, ~12 GiB/s) — calibration anchor.
    practical_channel_bandwidth: float

    @property
    def channel_capacity_bytes(self) -> int:
        """Address space behind one pseudo-channel."""
        return self.capacity_bytes // self.n_channels

    @property
    def raw_channel_bandwidth(self) -> float:
        """Raw byte rate of one channel: clock x width (14.4 GB/s)."""
        return self.channel_clock_hz * (self.channel_width_bits // 8)

    @property
    def practical_total_bandwidth(self) -> float:
        """All channels at the practical ceiling (the paper's 384 GiB/s)."""
        return self.n_channels * self.practical_channel_bandwidth


#: The XUP-VVH's 8 GiB HBM2 subsystem.
HBM_XUPVVH = HBMSpec(
    n_channels=32,
    n_stacks=2,
    capacity_bytes=8 * GIB,
    channel_clock_hz=450 * MHZ,
    channel_width_bits=256,
    theoretical_bandwidth=460 * GB,
    practical_channel_bandwidth=12 * GIB,
)


# ---------------------------------------------------------------------------
# PCIe / DMA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCIeSpec:
    """A PCIe interface generation with its DMA-practical limits.

    The shared DMA engine is modelled as a *weighted* capacity: device-
    to-host descriptors partially overlap with host-to-device traffic,
    so the sustained constraint is ``h2d_rate + d2h_weight * d2h_rate
    <= weighted_capacity``.  The Gen3 numbers are calibrated from the
    paper's two independent anchors (§V-B: NIPS10 plateau 614.65 M
    samples/s = 5.72 GiB/s out + 4.58 GiB/s back; §V-C/V-D: NIPS80
    116.57 M samples/s = 8.68 GiB/s out + 0.87 GiB/s back), which pin
    d2h_weight = 0.8 and weighted_capacity = 9.38 GiB/s.  Later
    generations scale by the paper's ~2x-per-generation projection.
    """

    name: str
    #: Theoretical one-directional bandwidth in bytes/s (payload rate,
    #: the paper's 15.754 GB/s for Gen3 x16).
    theoretical_unidirectional: float
    #: Practical single-direction DMA throughput in bytes/s (the paper
    #: quotes ~100 Gb/s = 11.64 GiB/s for QDMA/Corundum-class engines).
    practical_unidirectional: float
    #: Sustained weighted capacity of the shared engine, bytes/s.
    weighted_capacity: float
    #: Relative engine cost of device-to-host bytes (see class doc).
    d2h_weight: float
    #: Fixed per-DMA-transfer setup latency in seconds (descriptor +
    #: doorbell + completion handling).
    transfer_setup_latency: float

    def weighted_bytes(self, h2d_bytes: float, d2h_bytes: float) -> float:
        """Engine-time-equivalent bytes of a transfer pair."""
        return h2d_bytes + self.d2h_weight * d2h_bytes

    def bound_samples_per_second(self, input_bytes: int, result_bytes: int) -> float:
        """PCIe-imposed ceiling on end-to-end samples/s."""
        per_sample = self.weighted_bytes(input_bytes, result_bytes)
        return self.weighted_capacity / per_sample


PCIE_GEN3_X16 = PCIeSpec(
    name="pcie3-x16",
    theoretical_unidirectional=15.754 * GB,
    practical_unidirectional=11.64 * GIB,
    weighted_capacity=9.38 * GIB,
    d2h_weight=0.8,
    transfer_setup_latency=30e-6,
)

PCIE_GEN4_X16 = PCIeSpec(
    name="pcie4-x16",
    theoretical_unidirectional=31.508 * GB,
    practical_unidirectional=23.0 * GIB,
    weighted_capacity=2 * 9.38 * GIB,
    d2h_weight=0.8,
    transfer_setup_latency=25e-6,
)

PCIE_GEN5_X16 = PCIeSpec(
    name="pcie5-x16",
    theoretical_unidirectional=63.015 * GB,
    practical_unidirectional=46.0 * GIB,
    weighted_capacity=4 * 9.38 * GIB,
    d2h_weight=0.8,
    transfer_setup_latency=20e-6,
)

PCIE_GEN6_X16 = PCIeSpec(
    name="pcie6-x16",
    theoretical_unidirectional=126.031 * GB,
    practical_unidirectional=92.0 * GIB,
    weighted_capacity=8 * 9.38 * GIB,
    d2h_weight=0.8,
    transfer_setup_latency=15e-6,
)

#: Generations in the order of the paper's §V-C outlook.
PCIE_GENERATIONS: Dict[str, PCIeSpec] = {
    spec.name: spec
    for spec in (PCIE_GEN3_X16, PCIE_GEN4_X16, PCIE_GEN5_X16, PCIE_GEN6_X16)
}

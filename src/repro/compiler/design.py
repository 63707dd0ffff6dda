"""Whole-design composition: cores + memory interfaces + platform.

A *core* is one compiled SPN accelerator (datapath + its load/store
infrastructure).  A *design* replicates a core N times, adds the
platform's base infrastructure (host interface/shell, interconnect)
and one memory-interface instance per core (an AXI interconnect to an
HBM channel, or a soft DDR controller on the prior-work platform),
then checks device fit and estimates the achievable clock.

This module is platform-agnostic; the concrete platform descriptions
(XUP-VVH with HBM, AWS F1 with DDR) live in :mod:`repro.platforms`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.datapath import Datapath, build_datapath
from repro.compiler.frequency import achievable_frequency
from repro.compiler.operators import HWOp, OperatorLibrary, library_for_format
from repro.compiler.resources import DeviceResources, ResourceVector
from repro.compiler.schedule import PipelineSchedule, schedule_datapath
from repro.errors import CompilerError, ResourceFitError
from repro.spn.graph import SPN

__all__ = ["PlatformResources", "CoreSpec", "AcceleratorDesign", "compile_core", "compose_design"]

#: Routability ceiling: designs above this per-column utilisation are
#: considered unroutable ("routing scarcity", §V-B).
ROUTABILITY_LIMIT = 0.85


@dataclass(frozen=True)
class PlatformResources:
    """Resource-model view of a target platform."""

    #: Device budget (Table I "Available" row).
    device: DeviceResources
    #: Always-present infrastructure: shell/host interface, control
    #: interconnect, DMA engine.
    base_infrastructure: ResourceVector
    #: Per-core memory-path infrastructure (AXI interconnect + register
    #: slices for HBM; AXI plumbing for DDR).
    per_core_memory_path: ResourceVector
    #: One memory controller instance (zero vector when controllers
    #: are hardened, as for HBM).
    memory_controller: ResourceVector
    #: Whether memory controllers are soft logic (True for DDR).
    soft_memory_controllers: bool
    #: The accelerator clock constraint in MHz (225 for the HBM design).
    target_clock_mhz: float


@dataclass(frozen=True)
class CoreSpec:
    """One compiled SPN accelerator core."""

    name: str
    #: The source network (kept for the functional device model).
    spn: SPN
    datapath: Datapath
    schedule: PipelineSchedule
    library: OperatorLibrary
    #: Datapath operator resources only.
    datapath_resources: ResourceVector
    #: Fixed per-core units: Load Unit, Sample Buffer, Result Buffer,
    #: Store Unit, AXI4-Lite register file (§III-B's block diagram).
    core_infrastructure: ResourceVector

    @property
    def resources(self) -> ResourceVector:
        """Datapath plus per-core infrastructure."""
        return self.datapath_resources + self.core_infrastructure

    @property
    def pipeline_depth(self) -> int:
        """Sample latency through the datapath in cycles."""
        return self.schedule.depth


#: Fixed per-core unit costs (Load/Store units, 512-bit sample and
#: result buffers, register file).  Calibrated jointly with the
#: operator libraries against Table I; the BRAM here (FIFO buffering)
#: is why Table I's BRAM column is nearly flat across benchmarks.
CORE_INFRASTRUCTURE = ResourceVector(
    luts_logic=7_000,
    luts_mem=13_500,
    registers=16_000,
    bram=22,
    dsp=0,
)

#: Per value-stage cost of pipeline-balancing delay lines.  Long delay
#: lines map to SRL shift registers (LUTs used as memory) with a few
#: flip-flops at the ends, not to plain register chains — which is why
#: the kRegs column of Table I grows far slower than the raw
#: stage-times-width product would suggest.
_BALANCE_REGS_PER_STAGE = 4.0
_BALANCE_LUTMEM_PER_STAGE = 1.1


def compile_core(
    spn: SPN,
    fmt="cfp",
    *,
    core_infrastructure: ResourceVector = CORE_INFRASTRUCTURE,
) -> CoreSpec:
    """Compile *spn* into a single accelerator core.

    Parameters
    ----------
    spn:
        The (valid) network to lower.
    fmt:
        Number format or library name (``cfp``, ``lns``, ``float32``,
        ``float64``).
    core_infrastructure:
        Override for the fixed per-core unit costs.
    """
    library = library_for_format(fmt)
    datapath = build_datapath(spn)
    schedule = schedule_datapath(datapath, library)
    total = ResourceVector()
    for node in datapath.nodes:
        total = total + library.resources(node.op, table_entries=node.table_entries)
    # Balancing delay lines: SRLs plus end flip-flops per slack stage.
    total = total + ResourceVector(
        registers=schedule.balance_registers * _BALANCE_REGS_PER_STAGE,
        luts_mem=schedule.balance_registers * _BALANCE_LUTMEM_PER_STAGE,
    )
    return CoreSpec(
        name=spn.name,
        spn=spn,
        datapath=datapath,
        schedule=schedule,
        library=library,
        datapath_resources=total,
        core_infrastructure=core_infrastructure,
    )


@dataclass(frozen=True)
class AcceleratorDesign:
    """A composed multi-core design on a platform."""

    core: CoreSpec
    n_cores: int
    platform: PlatformResources
    total_resources: ResourceVector
    clock_mhz: float

    @property
    def name(self) -> str:
        """Design label, e.g. ``NIPS20x4``."""
        return f"{self.core.name}x{self.n_cores}"

    @property
    def samples_per_second_per_core(self) -> float:
        """Peak datapath rate of one core (II=1 at the design clock)."""
        return self.clock_mhz * 1e6

    def utilisation(self) -> dict:
        """Per-column device utilisation."""
        return self.platform.device.utilisation(self.total_resources)


def compose_design(
    core: CoreSpec,
    n_cores: int,
    platform: PlatformResources,
    *,
    check_fit: bool = True,
) -> AcceleratorDesign:
    """Replicate *core* and fit the design onto *platform*.

    Parameters
    ----------
    core / n_cores:
        The accelerator core and its replication factor.
    platform:
        Target platform resource model.
    check_fit:
        When true, raise :class:`~repro.errors.ResourceFitError` if the
        design exceeds the routability limit.
    """
    if n_cores < 1:
        raise CompilerError(f"n_cores must be >= 1, got {n_cores}")
    total = (
        platform.base_infrastructure
        + n_cores * (core.resources + platform.per_core_memory_path)
        + n_cores * platform.memory_controller
    )
    if check_fit:
        platform.device.check_fit(total, max_utilisation=ROUTABILITY_LIMIT)
    clock = achievable_frequency(
        core.library.nominal_fmax_mhz,
        total,
        platform.device,
        soft_memory_controllers=n_cores if platform.soft_memory_controllers else 0,
        target_mhz=platform.target_clock_mhz,
    )
    return AcceleratorDesign(
        core=core,
        n_cores=n_cores,
        platform=platform,
        total_resources=total,
        clock_mhz=clock,
    )

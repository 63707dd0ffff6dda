"""SPN-to-hardware compiler.

Models the paper's automatic datapath generator: an SPN (in SPFlow
text or as a :class:`~repro.spn.graph.SPN`) is translated into a fully
pipelined dataflow datapath of two-input hardware operators
(:mod:`repro.compiler.datapath`), scheduled into pipeline stages with
initiation interval 1 (:mod:`repro.compiler.schedule`), and costed
against per-operator latency/resource tables for the configured number
format (:mod:`repro.compiler.operators`).  Whole multi-core designs —
cores plus memory interfaces plus platform infrastructure — are
composed and fitted to a device in :mod:`repro.compiler.design`, with
an achievable-clock model in :mod:`repro.compiler.frequency`.

Together these reproduce the quantities the paper's evaluation rests
on: Table I's resource utilisation, the 225 MHz operating point, and
the per-core throughput of one sample per cycle.

The package also hosts the *native CPU* compilation path
(:mod:`repro.compiler.cgen` / :mod:`repro.compiler.native_build`):
per-plan C code generation plus a runtime build cache, backing the
``backend="native"`` inference switch.
"""

from repro.compiler.operators import (
    HWOp,
    OperatorCosts,
    OperatorLibrary,
    CFP_LIBRARY,
    LNS_LIBRARY,
    FLOAT32_LIBRARY,
    FLOAT64_LIBRARY,
    library_for_format,
)
from repro.compiler.datapath import Datapath, DatapathNode, build_datapath
from repro.compiler.schedule import PipelineSchedule, schedule_datapath
from repro.compiler.resources import ResourceVector, DeviceResources, ResourceReport
from repro.compiler.frequency import achievable_frequency
from repro.compiler.design import AcceleratorDesign, CoreSpec, compile_core, compose_design
from repro.compiler.cgen import CODEGEN_VERSION, generate_kernel_source
from repro.compiler.native_build import (
    NativeKernel,
    build_kernel,
    clear_native_kernels,
    compiler_command,
    get_native_kernel,
    load_kernel,
    native_or_plan_log_likelihood,
    set_native_observability,
)

__all__ = [
    "HWOp",
    "OperatorCosts",
    "OperatorLibrary",
    "CFP_LIBRARY",
    "LNS_LIBRARY",
    "FLOAT32_LIBRARY",
    "FLOAT64_LIBRARY",
    "library_for_format",
    "Datapath",
    "DatapathNode",
    "build_datapath",
    "PipelineSchedule",
    "schedule_datapath",
    "ResourceVector",
    "DeviceResources",
    "ResourceReport",
    "achievable_frequency",
    "AcceleratorDesign",
    "CoreSpec",
    "compile_core",
    "compose_design",
    "CODEGEN_VERSION",
    "generate_kernel_source",
    "NativeKernel",
    "build_kernel",
    "clear_native_kernels",
    "compiler_command",
    "get_native_kernel",
    "load_kernel",
    "native_or_plan_log_likelihood",
    "set_native_observability",
]

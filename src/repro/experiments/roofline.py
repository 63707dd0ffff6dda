"""Roofline analysis: why SPN inference is bandwidth-bound.

The paper attributes its memory focus to "the relatively low
arithmetic intensity of SPN inference" (§I) and the V100's loss to
the same property (§V-D).  This module quantifies that claim: for
each benchmark, the arithmetic intensity (datapath operations per
byte moved) and the resulting roofline-limited throughput on each
platform's (bandwidth, compute) envelope.

Beside the modelled platforms it holds the *real* host kernel to the
same standard: the per-row work of the generated C kernel
(:mod:`repro.compiler.cgen`) read off the compiled plan — table
gathers, adds, ``exp``, ``log``, bytes in and out — and, when asked to
measure, the op rate and byte rate the kernel actually achieves, so a
rows/s figure can be judged against an arithmetic ceiling as well as a
bandwidth one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.cgen import linear_rows
from repro.compiler.datapath import build_datapath
from repro.compiler.native_build import compiler_command, get_native_kernel
from repro.compiler.operators import HWOp
from repro.experiments.reporting import format_table
from repro.platforms.specs import HBM_XUPVVH, XUPVVH_HBM_PLATFORM
from repro.spn.nips import NIPS_BENCHMARKS, nips_benchmark
from repro.spn.plan import InferencePlan, get_plan
from repro.units import MHZ

__all__ = [
    "PlatformEnvelope",
    "HostKernelOps",
    "RooflinePoint",
    "host_kernel_ops",
    "run_roofline",
    "format_roofline",
]


@dataclass(frozen=True)
class PlatformEnvelope:
    """A platform's roofline: sustained bandwidth and op throughput."""

    name: str
    #: Sustained memory/interface bandwidth in bytes/s (the slanted
    #: part of the roof).
    bandwidth: float
    #: Peak operation throughput in ops/s (the flat part).
    compute: float

    @property
    def ridge_intensity(self) -> float:
        """Ops/byte where the platform turns compute-bound."""
        return self.compute / self.bandwidth

    def bound(self, intensity: float) -> float:
        """Roofline-limited op rate at *intensity* (ops/s)."""
        return min(self.compute, self.bandwidth * intensity)


#: Platform envelopes.  HBM FPGA: 8 channels x 12 GiB/s feeding
#: 8 x 225 MHz II=1 pipelines, each pipeline retiring its whole
#: datapath's ops every cycle (spatial compute — this is the point).
#: V100: ~900 GB/s HBM2 but ~17 Gop/s *effective* on gather-heavy SPN
#: node evaluation (the calibrated model).  Xeon: ~60 GB/s, ~30 Gop/s
#: effective vector throughput.
def _platform_envelopes(n_ops: int) -> List[PlatformEnvelope]:
    return [
        PlatformEnvelope(
            "HBM FPGA (8 cores)",
            bandwidth=8 * HBM_XUPVVH.practical_channel_bandwidth,
            # Spatial: all ops, every cycle.
            compute=8 * (XUPVVH_HBM_PLATFORM.target_clock_mhz * MHZ) * n_ops,
        ),
        PlatformEnvelope("Tesla V100", bandwidth=900e9, compute=17e9),
        PlatformEnvelope("Xeon E5-2680v3", bandwidth=60e9, compute=30e9),
    ]


@dataclass(frozen=True)
class HostKernelOps:
    """What the generated C kernel does per row, read from the plan."""

    #: Histogram lookups: one ``T_HIST`` gather per reference from a
    #: product or sum node (no histogram leaf is stored).
    table_gathers: int
    #: Grid-coded histogram variables (breaks not consecutive
    #: integers): grid cell, start index and *K* compares per row.
    irregular_lookups: int
    #: Non-histogram leaves: Gaussian and categorical (closed form / LUT).
    closed_form_leaves: int
    #: Child terms over all product nodes (a node of k terms is k-1 adds).
    product_terms: int
    #: Floating-point adds, subtracts and multiplies: ``k - 1`` per
    #: product of *k* terms; per sum child, a multiply and an add in the
    #: linear domain, the weight add, peak shift and accumulation in the
    #: log domain.
    adds: int
    #: ``exp`` calls: one per child of a log-domain sum.
    exps: int
    #: ``log`` calls: one per log-domain sum, per cut edge and for a
    #: linear root.
    logs: int
    #: Bytes read per row (the float64 input row).
    bytes_in: int
    #: Bytes written per row (the float64 root log-likelihood).
    bytes_out: int

    @property
    def ops(self) -> int:
        """All of the above as one per-row operation count."""
        return (
            self.table_gathers + self.irregular_lookups
            + self.closed_form_leaves + self.adds + self.exps + self.logs
        )

    @property
    def bytes(self) -> int:
        """Computed bytes moved per row, in plus out."""
        return self.bytes_in + self.bytes_out


def host_kernel_ops(plan: InferencePlan) -> HostKernelOps:
    """Count the float64 kernel's per-row operations for *plan*, each
    node in the domain :func:`~repro.compiler.cgen.linear_rows` gives it."""
    groups = plan.histogram_block.groups if plan.histogram_block else ()
    n_inline = sum(len(group) for group in groups)
    linear = linear_rows(plan, np.float64)
    gathers = product_terms = n_products = adds = exps = 0
    logs = int(linear[plan.root_row])
    for layer in plan.layers:
        gathers += int(np.count_nonzero(layer.child_rows < n_inline))
        for j, children in enumerate(
            np.split(layer.child_rows, layer.indptr[1:-1])
        ):
            k, lin = len(children), linear[layer.row_start + j]
            if layer.kind == "product":
                product_terms += k
                n_products += 1
            elif lin:
                adds += 2 * k
            else:
                adds += 3 * k
                exps += k
                logs += 1
            if not lin:  # a log per cut edge
                logs += int(np.count_nonzero(linear[children[children >= n_inline]]))
    return HostKernelOps(
        table_gathers=gathers,
        irregular_lookups=sum(not group.unit_bins for group in groups),
        closed_form_leaves=plan.n_leaves - n_inline,
        product_terms=product_terms,
        adds=adds + product_terms - n_products,
        exps=exps,
        logs=logs,
        bytes_in=8 * plan.n_data_columns,
        bytes_out=8,
    )


@dataclass(frozen=True)
class RooflinePoint:
    """One benchmark's position on the rooflines."""

    benchmark: str
    n_ops: int
    bytes_per_sample: int
    intensity: float
    #: platform -> (roofline-bound samples/s, memory_bound?).
    bounds: Dict[str, Tuple[float, bool]]
    #: The host C kernel's per-row work on this benchmark.
    host_ops: HostKernelOps
    #: Measured single-thread rows/s of the host kernel (None when not
    #: measured: ``host_rows=0`` or no C compiler).
    host_rows_per_s: Optional[float] = None


def _measure_host_kernel(plan: InferencePlan, n_rows: int) -> Optional[float]:
    """Best-of-three single-thread rows/s of the float64 kernel."""
    if compiler_command() is None:
        return None
    kernel = get_native_kernel(plan, np.float64, require=True)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(n_rows, plan.n_data_columns))
    data = data.astype(np.float64)
    kernel.log_likelihood(data[:1024], threads=1)  # load, first touch
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        kernel.log_likelihood(data, threads=1)
        best = min(best, time.perf_counter() - began)
    return n_rows / best


def run_roofline(
    benchmarks: Sequence[str] = NIPS_BENCHMARKS,
    host_rows: int = 0,
) -> List[RooflinePoint]:
    """Compute intensity and per-platform bounds for each benchmark.

    With ``host_rows > 0`` (and a C compiler) the generated kernel is
    also built and timed on that many rows, one thread, so
    :func:`format_roofline` can print what it achieves.
    """
    points: List[RooflinePoint] = []
    for name in benchmarks:
        bench = nips_benchmark(name)
        plan = get_plan(bench.spn)
        datapath = build_datapath(bench.spn)
        n_ops = sum(
            datapath.count(op)
            for op in (HWOp.ADD, HWOp.MUL, HWOp.CONST_MUL, HWOp.LOOKUP)
        )
        bytes_per_sample = bench.total_bytes_per_sample
        intensity = n_ops / bytes_per_sample
        bounds: Dict[str, Tuple[float, bool]] = {}
        for platform in _platform_envelopes(n_ops):
            op_rate = platform.bound(intensity)
            samples = op_rate / n_ops
            bounds[platform.name] = (samples, intensity < platform.ridge_intensity)
        points.append(
            RooflinePoint(
                benchmark=name,
                n_ops=n_ops,
                bytes_per_sample=bytes_per_sample,
                intensity=intensity,
                bounds=bounds,
                host_ops=host_kernel_ops(plan),
                host_rows_per_s=(
                    _measure_host_kernel(plan, host_rows) if host_rows else None
                ),
            )
        )
    return points


def format_roofline(points: Sequence[RooflinePoint]) -> str:
    """Render the roofline table (Msamples/s bounds, bound type)."""
    platforms = list(points[0].bounds)
    headers = ["benchmark", "ops", "B/sample", "ops/B"] + [
        f"{p} (M/s)" for p in platforms
    ]
    rows = []
    for point in points:
        row = [
            point.benchmark,
            point.n_ops,
            point.bytes_per_sample,
            f"{point.intensity:.1f}",
        ]
        for platform in platforms:
            samples, memory_bound = point.bounds[platform]
            row.append(f"{samples / 1e6:,.0f}{' (mem)' if memory_bound else ''}")
        rows.append(row)
    modelled = format_table(
        headers,
        rows,
        title=(
            "Roofline bounds per platform ('mem' = memory-bound at that "
            "platform's envelope; SPN inference sits left of the GPU ridge)"
        ),
    )
    return modelled + "\n\n" + _format_host_kernel(points)


def _format_host_kernel(points: Sequence[RooflinePoint]) -> str:
    """The host C kernel: per-row work, and achieved rates if measured."""
    headers = [
        "benchmark", "gathers", "irregular", "adds", "exp", "log",
        "ops/row", "B/row", "Mrows/s", "Gop/s", "GB/s",
    ]
    rows = []
    for point in points:
        ops, rate = point.host_ops, point.host_rows_per_s
        row = [
            point.benchmark, ops.table_gathers, ops.irregular_lookups,
            ops.adds, ops.exps, ops.logs, ops.ops, ops.bytes,
        ]
        if rate is None:
            row += ["-", "-", "-"]
        else:
            row += [
                f"{rate / 1e6:.2f}",
                f"{rate * ops.ops / 1e9:.2f}",
                f"{rate * ops.bytes / 1e9:.2f}",
            ]
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            "Host C kernel, float64, one thread: per-row work read from "
            "the plan; achieved rates measured ('-' = not measured)"
        ),
    )

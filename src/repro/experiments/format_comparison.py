"""Number-format design-space study (the [4] companion experiment).

The paper states its datapath uses "the suitable configurations
determined in [4]" (CFP) with the LNS of [11] as the alternative.
This experiment reproduces the selection evidence: for each candidate
format, accuracy on a benchmark SPN (max log-domain error, underflow)
and the hardware cost of a 4-core design under that format's operator
library — the accuracy/cost frontier that makes CFP the choice.

§III's other half — the format's range must cover every value the
network can produce — is :func:`run_range_coverage`: each NIPS
network's static root log-value range
(:attr:`~repro.spn.plan.InferencePlan.log_bounds`) beside the paper's
formats' ranges and the share of the native kernel's nodes that run
in the linear domain of float64 and float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arith import (
    FLOAT32,
    PAPER_CFP,
    PAPER_LNS,
    CustomFloat,
    Posit,
    compare_formats_on_spn,
)
from repro.arith.base import NumberFormat
from repro.compiler.cgen import linear_range, linear_rows
from repro.compiler.design import compile_core, compose_design
from repro.errors import CompilerError
from repro.experiments.reporting import format_table
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import NIPS_BENCHMARKS, nips_benchmark, nips_dataset
from repro.spn.plan import get_plan

__all__ = [
    "FormatStudyRow",
    "run_format_comparison",
    "format_format_comparison",
    "RangeCoverageRow",
    "run_range_coverage",
    "format_range_coverage",
]

#: Storage dtypes of the native kernel, beside the paper's formats.
_KERNEL_DTYPES = (np.float64, np.float32)

#: The candidate set mirroring [4]'s study: the adopted CFP and LNS
#: configurations, narrower CFPs, a posit, and IEEE single precision.
DEFAULT_CANDIDATES: Tuple[NumberFormat, ...] = (
    PAPER_CFP,
    PAPER_LNS,
    CustomFloat(exponent_bits=8, mantissa_bits=15),
    CustomFloat(exponent_bits=6, mantissa_bits=12),
    Posit(32, 2),
    FLOAT32,
)


@dataclass(frozen=True)
class FormatStudyRow:
    """One candidate format's accuracy and cost."""

    format_name: str
    bits: int
    max_log_error: float
    underflow_fraction: float
    acceptable: bool
    #: 4-core design DSPs under the format's operator library (None
    #: when no library family exists for the format).
    dsp: Optional[int]
    luts_logic_k: Optional[float]
    clock_mhz: Optional[float]


def run_format_comparison(
    benchmark: str = "NIPS20",
    candidates: Sequence[NumberFormat] = DEFAULT_CANDIDATES,
    *,
    n_samples: int = 1000,
) -> List[FormatStudyRow]:
    """Accuracy + cost table for each candidate format."""
    bench = nips_benchmark(benchmark)
    data = nips_dataset(benchmark).astype(np.float64)[:n_samples]
    reports = compare_formats_on_spn(bench.spn, data, list(candidates))
    rows: List[FormatStudyRow] = []
    for fmt, report in zip(candidates, reports):
        family = fmt.name.split("(")[0]
        try:
            core = compile_core(bench.spn, family)
            design = compose_design(core, 4, XUPVVH_HBM_PLATFORM)
            dsp = int(round(design.total_resources.dsp))
            luts = design.total_resources.luts_logic / 1e3
            clock = design.clock_mhz
        except CompilerError:
            dsp = luts = clock = None
        rows.append(
            FormatStudyRow(
                format_name=fmt.name,
                bits=fmt.bits,
                max_log_error=report.max_log_error,
                underflow_fraction=report.underflow_fraction,
                acceptable=report.acceptable(),
                dsp=dsp,
                luts_logic_k=luts,
                clock_mhz=clock,
            )
        )
    return rows


def format_format_comparison(rows: Sequence[FormatStudyRow], benchmark: str = "NIPS20") -> str:
    """Render the study as the selection table of [4]."""
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.format_name,
                row.bits,
                f"{row.max_log_error:.2e}",
                f"{row.underflow_fraction * 100:.1f}%",
                "yes" if row.acceptable else "NO",
                row.dsp if row.dsp is not None else "-",
                f"{row.luts_logic_k:.0f}k" if row.luts_logic_k is not None else "-",
                f"{row.clock_mhz:.0f}" if row.clock_mhz is not None else "-",
            ]
        )
    return format_table(
        ["format", "bits", "max log err", "underflow", "ok", "DSP(4c)", "LUT(4c)", "MHz"],
        table_rows,
        title=f"Number-format design space on {benchmark} (the [4] selection study)",
    )


@dataclass(frozen=True)
class RangeCoverageRow:
    """One network's static root log-value range and who covers it."""

    benchmark: str
    #: Static bounds of the root's finite log-value, in nats.
    root_lo: float
    root_hi: float
    #: Storage dtype name -> (linear interior nodes, interior nodes) of
    #: its native kernel.
    linear_nodes: Dict[str, Tuple[int, int]]


def run_range_coverage() -> List[RangeCoverageRow]:
    """The static root range of each NIPS network and its kernels' cuts."""
    rows = []
    for name in NIPS_BENCHMARKS:
        plan = get_plan(nips_benchmark(name).spn)
        lo, hi, _ = plan.log_bounds
        interior = plan.n_nodes - plan.n_leaves
        linear = {
            np.dtype(dtype).name: (
                int(linear_rows(plan, dtype)[plan.n_leaves:].sum()), interior
            )
            for dtype in _KERNEL_DTYPES
        }
        rows.append(RangeCoverageRow(
            name, float(lo[plan.root_row]), float(hi[plan.root_row]), linear
        ))
    return rows


def format_range_coverage(rows: Sequence[RangeCoverageRow]) -> str:
    """Render :func:`run_range_coverage` beside the paper's formats'
    ranges, in nats."""
    ranges = [
        (fmt.name, np.log(fmt.smallest_positive), np.log(fmt.largest))
        for fmt in (PAPER_CFP, PAPER_LNS)
    ]
    dtypes = [np.dtype(dtype).name for dtype in _KERNEL_DTYPES]
    headers = ["benchmark", "root lo", "root hi"] + [
        f"{name} [{lo:.1f}, {hi:.1f}]" for name, lo, hi in ranges
    ] + [
        "{} linear [{:.1f}, {:.1f}]".format(name, *linear_range(name))
        for name in dtypes
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [row.benchmark, f"{row.root_lo:.1f}", f"{row.root_hi:.1f}"]
            + [
                "fits" if lo <= row.root_lo and row.root_hi <= hi else "NO"
                for _, lo, hi in ranges
            ]
            + ["{}/{}".format(*row.linear_nodes[name]) for name in dtypes]
        )
    return format_table(
        headers,
        table_rows,
        title=(
            "Static root log-value range (nats) against each format's range "
            "and the native kernel's linear-domain nodes"
        ),
    )

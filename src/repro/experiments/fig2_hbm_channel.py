"""Fig. 2 — single HBM channel throughput vs request size.

Reproduces the paper's microbenchmark: linear read and write streams
against one channel, swept over request sizes, for the two attachment
configurations (native 450 MHz x 256 bit, and the clock/width-converted
225 MHz x 512 bit core port).  Both the discrete-event measurement and
the closed-form model are reported; they must agree (cross-validated
in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.reporting import format_series
from repro.mem.hbm import CORE_PORT_WIDTH_BITS, channel_throughput, core_port_clock_hz
from repro.mem.traffic import run_channel_benchmark
from repro.platforms.specs import HBM_XUPVVH
from repro.units import GIB, KIB, MHZ, MIB

__all__ = ["Fig2Result", "run_fig2", "format_fig2", "DEFAULT_REQUEST_SIZES"]

#: Request sizes swept (the paper's x-axis spans small KiB to MiB).
DEFAULT_REQUEST_SIZES: Tuple[int, ...] = (
    4 * KIB,
    16 * KIB,
    64 * KIB,
    256 * KIB,
    512 * KIB,
    1 * MIB,
    2 * MIB,
    4 * MIB,
)


@dataclass(frozen=True)
class Fig2Result:
    """Measured Fig. 2 series (combined R+W GiB/s per request size)."""

    request_sizes: Tuple[int, ...]
    native_450mhz: Tuple[float, ...]
    converted_225mhz: Tuple[float, ...]
    analytic_native: Tuple[float, ...]

    @property
    def plateau_gib(self) -> float:
        """Largest measured throughput (the ~12 GiB/s plateau)."""
        return max(self.native_450mhz)

    @property
    def saturation_bytes(self) -> int:
        """Smallest request size within 3% of the plateau."""
        for size, rate in zip(self.request_sizes, self.native_450mhz):
            if rate >= 0.97 * self.plateau_gib:
                return size
        return self.request_sizes[-1]


def run_fig2(
    request_sizes: Tuple[int, ...] = DEFAULT_REQUEST_SIZES,
    *,
    n_requests: int = 32,
) -> Fig2Result:
    """Run the Fig. 2 sweep in the DES (plus the analytic check)."""
    native: List[float] = []
    converted: List[float] = []
    analytic: List[float] = []
    for size in request_sizes:
        native.append(
            run_channel_benchmark(size, n_requests=n_requests).throughput / GIB
        )
        converted.append(
            run_channel_benchmark(
                size, n_requests=n_requests, use_smartconnect=True
            ).throughput
            / GIB
        )
        analytic.append(channel_throughput(size) / GIB)
    return Fig2Result(
        request_sizes=tuple(request_sizes),
        native_450mhz=tuple(native),
        converted_225mhz=tuple(converted),
        analytic_native=tuple(analytic),
    )


def format_fig2(result: Fig2Result) -> str:
    """Render the Fig. 2 series (GiB/s per request size)."""
    native_mhz = HBM_XUPVVH.channel_clock_hz / MHZ
    # The converted series is labelled from the half-clock x
    # double-width equivalence the model runs.
    core_mhz = core_port_clock_hz() / MHZ
    widths = CORE_PORT_WIDTH_BITS // HBM_XUPVVH.channel_width_bits
    return format_series(
        "request",
        [f"{s // KIB} KiB" for s in result.request_sizes],
        {
            f"{native_mhz:.0f}MHz native (GiB/s)": result.native_450mhz,
            f"{core_mhz:.0f}MHz x{widths} width (GiB/s)": result.converted_225mhz,
            "analytic (GiB/s)": result.analytic_native,
        },
        title=(
            "Fig. 2 - one HBM channel, parallel linear read+write "
            f"(plateau {result.plateau_gib:.1f} GiB/s, paper ~12 GiB/s; "
            f"saturates at {result.saturation_bytes // KIB} KiB, paper 1024 KiB)"
        ),
    )

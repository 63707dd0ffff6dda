"""Fig. 5 — HBM scaling potential of the architecture.

For each benchmark, the per-core memory demand (input + result bytes
times the single-core sample rate) is scaled across 1..128 instances
and compared against three limits (the paper's three horizontal
lines): the single-channel measured throughput, the practical
32-channel total, and the vendor's theoretical bandwidth.  The result
answers the §V-C question: how many cores could HBM alone feed?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.reference import PAPER
from repro.experiments.reporting import format_series
from repro.mem.hbm import channel_throughput
from repro.platforms.specs import HBM_XUPVVH
from repro.spn.nips import NIPS_BENCHMARKS, nips_benchmark
from repro.units import GIB, MIB

__all__ = ["Fig5Result", "run_fig5", "format_fig5"]

@dataclass(frozen=True)
class Fig5Result:
    """Per-benchmark demand curves and the HBM limit lines."""

    core_counts: Tuple[int, ...]
    #: benchmark -> required GiB/s per core count.
    demand_gib: Dict[str, Tuple[float, ...]]
    #: Measured single-channel limit (GiB/s).
    single_channel_gib: float
    #: Practical 32-channel limit (GiB/s), the paper's HBM max_p.
    practical_total_gib: float
    #: Vendor theoretical limit (GiB/s), the paper's HBM max_t.
    theoretical_total_gib: float

    def max_cores_within(self, benchmark: str, limit_gib: float) -> int:
        """Largest core count whose demand stays under *limit_gib*."""
        best = 0
        for count, demand in zip(self.core_counts, self.demand_gib[benchmark]):
            if demand <= limit_gib:
                best = count
        return best


def run_fig5(
    benchmarks: Sequence[str] = NIPS_BENCHMARKS,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Fig5Result:
    """Compute the Fig. 5 demand curves and limits.

    Every benchmark runs the same II=1 pipeline at 225 MHz, throttled
    by the §V-B per-job orchestration to the paper's measured
    single-core rate (``PAPER.nips10_single_core_rate``, ~133 M
    samples/s), so one per-core rate scales every demand curve.
    """
    demand: Dict[str, Tuple[float, ...]] = {}
    for name in benchmarks:
        bench = nips_benchmark(name)
        bytes_per_sample = bench.total_bytes_per_sample
        per_core = PAPER.nips10_single_core_rate * bytes_per_sample / GIB
        demand[name] = tuple(per_core * n for n in core_counts)
    return Fig5Result(
        core_counts=tuple(core_counts),
        demand_gib=demand,
        single_channel_gib=channel_throughput(1 * MIB) / GIB,
        practical_total_gib=HBM_XUPVVH.practical_total_bandwidth / GIB,
        theoretical_total_gib=HBM_XUPVVH.theoretical_bandwidth / GIB,
    )


def format_fig5(result: Fig5Result) -> str:
    """Render Fig. 5's demand table plus the limit summary."""
    table = format_series(
        "cores",
        list(result.core_counts),
        {name: list(series) for name, series in result.demand_gib.items()},
        title="Fig. 5 - required memory throughput (GiB/s) by core count",
    )
    limits = (
        f"limits: single channel {result.single_channel_gib:.1f} GiB/s, "
        f"HBM max_p {result.practical_total_gib:.0f} GiB/s, "
        f"HBM max_t {result.theoretical_total_gib:.0f} GiB/s"
    )
    fits = []
    for name in result.demand_gib:
        fits.append(
            f"{name}: up to {result.max_cores_within(name, result.practical_total_gib)} "
            f"cores within HBM max_p"
        )
    return table + "\n" + limits + "\n" + "; ".join(fits)

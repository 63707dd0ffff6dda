"""§V-C — the PCIe-generation outlook and HBM headroom accounting.

Reproduces the quantified arguments of the scaling-limitations
section:

* the NIPS80 input stream needs 8.7 GiB/s against ~11.6 GiB/s of
  practical Gen3 DMA;
* Gen4/5/6 DMA engines project to ~23/46/92 GiB/s single-direction;
* 128 NIPS10 cores would demand 285 GiB/s — under both the practical
  (384 GiB/s) and theoretical (428 GiB/s) HBM limits;
* the projected end-to-end throughput per benchmark per generation
  (what "scaling much further" buys);
* §VII: how many 100G links one card's HBM buffers (16), the NIPS80
  rate they carry at line rate, and the HBM traffic buffering costs
  (each link's payload written once and read back once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.reference import PAPER
from repro.experiments.reporting import format_series, format_table
from repro.platforms.specs import HBM_XUPVVH, PCIE_GENERATIONS
from repro.platforms.streaming_model import STREAMING_100G, max_links_for_hbm
from repro.spn.nips import NIPS_BENCHMARKS, nips_benchmark
from repro.units import GIB

__all__ = ["OutlookResult", "run_outlook", "format_outlook"]

@dataclass(frozen=True)
class OutlookResult:
    """§V-C accounting (demands vs interface generations) and the §VII row."""

    #: generation -> practical single-direction GiB/s.
    pcie_practical_gib: Dict[str, float]
    #: generation -> benchmark -> projected e2e samples/s (PCIe-bound).
    projected_rates: Dict[str, Dict[str, float]]
    #: NIPS80 input-side demand at the measured rate, GiB/s.
    nips80_input_gib: float
    #: Demand of 128 NIPS10 cores, GiB/s.
    nips10_128core_demand_gib: float
    #: Practical 32-channel HBM total, GiB/s.
    hbm_practical_gib: float
    #: Theoretical HBM total, GiB/s.
    hbm_theoretical_gib: float
    #: §VII: 100G links one card's HBM buffers at line rate.
    links_per_card: int
    #: §VII: NIPS80 samples/s over all buffered links at line rate.
    multilink_nips80_rate: float
    #: §VII: HBM traffic of buffering every link (write + read), GiB/s.
    multilink_buffer_gib: float

    @property
    def hbm_headroom_ok(self) -> bool:
        """True when 128 NIPS10 cores fit under both HBM limits."""
        return self.nips10_128core_demand_gib < min(
            self.hbm_practical_gib, self.hbm_theoretical_gib
        )


def run_outlook(benchmarks: Sequence[str] = NIPS_BENCHMARKS) -> OutlookResult:
    """Compute the §V-C and §VII outlook numbers."""
    practical = {
        name: spec.practical_unidirectional / GIB
        for name, spec in PCIE_GENERATIONS.items()
    }
    projected: Dict[str, Dict[str, float]] = {}
    for gen_name, spec in PCIE_GENERATIONS.items():
        projected[gen_name] = {}
        for bench_name in benchmarks:
            bench = nips_benchmark(bench_name)
            projected[gen_name][bench_name] = spec.bound_samples_per_second(
                bench.input_bytes_per_sample, bench.result_bytes_per_sample
            )
    nips80 = nips_benchmark("NIPS80")
    nips80_input = PAPER.nips80_rate * nips80.input_bytes_per_sample / GIB
    nips10 = nips_benchmark("NIPS10")
    demand_128 = 128 * PAPER.nips10_single_core_rate * nips10.total_bytes_per_sample / GIB
    links = max_links_for_hbm()
    return OutlookResult(
        pcie_practical_gib=practical,
        projected_rates=projected,
        nips80_input_gib=nips80_input,
        nips10_128core_demand_gib=demand_128,
        hbm_practical_gib=HBM_XUPVVH.practical_total_bandwidth / GIB,
        hbm_theoretical_gib=HBM_XUPVVH.theoretical_bandwidth / GIB,
        links_per_card=links,
        multilink_nips80_rate=(
            links * STREAMING_100G.samples_per_second(nips80.total_bytes_per_sample)
        ),
        multilink_buffer_gib=2 * links * STREAMING_100G.line_rate_bits / 8 / GIB,
    )


def format_outlook(result: OutlookResult) -> str:
    """Render the §V-C tables and the §VII multi-link row."""
    gens = list(result.pcie_practical_gib)
    bench_names = list(next(iter(result.projected_rates.values())))
    rate_table = format_series(
        "benchmark",
        bench_names,
        {
            gen: [result.projected_rates[gen][b] / 1e6 for b in bench_names]
            for gen in gens
        },
        title="SectionV-C - projected PCIe-bound e2e rate (Msamples/s) per generation",
    )
    summary = format_table(
        ["quantity", "GiB/s"],
        [
            ["NIPS80 input demand (paper 8.7)", f"{result.nips80_input_gib:.1f}"],
            [
                "128x NIPS10 demand (paper 285)",
                f"{result.nips10_128core_demand_gib:.0f}",
            ],
            ["HBM practical total (paper 384)", f"{result.hbm_practical_gib:.0f}"],
            ["HBM theoretical total (paper ~428)", f"{result.hbm_theoretical_gib:.0f}"],
        ],
        title="SectionV-C - bandwidth accounting",
    )
    multilink = format_table(
        ["100G links per card", "NIPS80 Msamples/s", "HBM buffer GiB/s"],
        [
            [
                result.links_per_card,
                f"{result.multilink_nips80_rate / 1e6:.1f}",
                f"{result.multilink_buffer_gib:.1f}",
            ]
        ],
        title="SectionVII - NIPS80 over HBM-buffered 100G links at line rate",
    )
    return rate_table + "\n\n" + summary + "\n\n" + multilink

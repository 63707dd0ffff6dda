"""§V-D — speedup summary and the streaming perspective.

Derives the headline numbers from the Fig. 6 data: speedups of the
HBM system over the CPU, GPU and prior F1 implementation (maximum and
geometric mean), plus the NIPS80 comparison against the 100G
streaming architecture of [7].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.fig6_end_to_end import Fig6Result, run_fig6
from repro.experiments.reference import PAPER
from repro.experiments.reporting import format_table
from repro.platforms.streaming_model import STREAMING_100G
from repro.spn.nips import nips_benchmark

__all__ = ["SpeedupResult", "geometric_mean", "run_speedups", "format_speedups"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ReproError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ReproError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class SpeedupResult:
    """The §V-D headline numbers, measured on the models."""

    per_benchmark_vs_cpu: Dict[str, float]
    per_benchmark_vs_gpu: Dict[str, float]
    per_benchmark_vs_f1: Dict[str, float]
    #: 100G streaming NIPS80 rate (samples/s) vs the HBM NIPS80 rate.
    streaming_nips80: float
    hbm_nips80: float

    @property
    def vs_cpu_max(self) -> float:
        """Maximum speedup over the CPU."""
        return max(self.per_benchmark_vs_cpu.values())

    @property
    def vs_cpu_geomean(self) -> float:
        """Geometric-mean speedup over the CPU."""
        return geometric_mean(list(self.per_benchmark_vs_cpu.values()))

    @property
    def vs_gpu_max(self) -> float:
        """Maximum speedup over the V100."""
        return max(self.per_benchmark_vs_gpu.values())

    @property
    def vs_gpu_geomean(self) -> float:
        """Geometric-mean speedup over the V100."""
        return geometric_mean(list(self.per_benchmark_vs_gpu.values()))

    @property
    def vs_f1_max(self) -> float:
        """Maximum speedup over the prior F1 implementation."""
        return max(self.per_benchmark_vs_f1.values())

    @property
    def vs_f1_geomean(self) -> float:
        """Geometric-mean speedup over the prior F1 implementation."""
        return geometric_mean(list(self.per_benchmark_vs_f1.values()))

    @property
    def streaming_advantage(self) -> float:
        """Streaming-over-HBM factor on NIPS80 (paper: 140.7 M / 116.6 M = 1.21x)."""
        return self.streaming_nips80 / self.hbm_nips80

    @property
    def cpu_wins_nips10(self) -> bool:
        """The paper's one exception: CPU beats HBM on NIPS10."""
        return self.per_benchmark_vs_cpu.get("NIPS10", 2.0) < 1.0


def run_speedups(
    fig6: Optional[Fig6Result] = None, *, cpu_backend: str = "model"
) -> SpeedupResult:
    """Compute the §V-D summary (reusing a Fig. 6 run when given).

    *cpu_backend* is forwarded to :func:`~repro.experiments.
    fig6_end_to_end.run_fig6` when no result is supplied:
    ``"measured"`` states the vs-CPU speedups against a real
    zero-copy-executor run on the local machine instead of the
    calibrated Xeon model.
    """
    if fig6 is None:
        fig6 = run_fig6(cpu_backend=cpu_backend)
    vs_cpu = {n: fig6.hbm[n] / fig6.cpu[n] for n in fig6.benchmarks}
    vs_gpu = {n: fig6.hbm[n] / fig6.gpu[n] for n in fig6.benchmarks}
    vs_f1 = {n: fig6.hbm[n] / fig6.f1[n] for n in fig6.benchmarks}
    nips80 = nips_benchmark("NIPS80")
    streaming = STREAMING_100G.samples_per_second(nips80.total_bytes_per_sample)
    return SpeedupResult(
        per_benchmark_vs_cpu=vs_cpu,
        per_benchmark_vs_gpu=vs_gpu,
        per_benchmark_vs_f1=vs_f1,
        streaming_nips80=streaming,
        hbm_nips80=fig6.hbm.get("NIPS80", float("nan")),
    )


def format_speedups(result: SpeedupResult) -> str:
    """Render the §V-D summary with paper references."""
    rows = [
        ["vs CPU max", f"{result.vs_cpu_max:.2f}x", f"{PAPER.speedup_vs_cpu_max}x"],
        ["vs CPU geo-mean", f"{result.vs_cpu_geomean:.2f}x", f"{PAPER.speedup_vs_cpu_geomean}x"],
        ["vs V100 max", f"{result.vs_gpu_max:.2f}x", f"{PAPER.speedup_vs_gpu_max}x"],
        ["vs V100 geo-mean", f"{result.vs_gpu_geomean:.2f}x", f"{PAPER.speedup_vs_gpu_geomean}x"],
        ["vs F1 max", f"{result.vs_f1_max:.2f}x", f"{PAPER.speedup_vs_f1_max}x"],
        ["vs F1 geo-mean", f"{result.vs_f1_geomean:.2f}x", f"{PAPER.speedup_vs_f1_geomean}x"],
        [
            "streaming/HBM (NIPS80)",
            f"{result.streaming_advantage:.2f}x",
            f"{PAPER.streaming_nips80_rate / PAPER.nips80_rate:.2f}x",
        ],
        ["CPU wins NIPS10", str(result.cpu_wins_nips10), "True"],
    ]
    return format_table(
        ["metric", "measured", "paper"],
        rows,
        title="SectionV-D - speedup summary (HBM system vs baselines)",
    )

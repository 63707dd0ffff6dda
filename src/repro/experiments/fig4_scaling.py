"""Fig. 4 — samples/s vs PE count, with and without host transfers.

Runs the full simulated system (device + multi-threaded runtime) for
1..8 accelerator cores per benchmark, once excluding host transfers
(left panel) and once end-to-end (right panel).  One control thread
per PE, as the paper uses for these results.

Every (benchmark, pe_count, panel) point is an independent simulation,
so the sweep fans them across the process-parallel runner in
:mod:`repro.experiments.sweep`; each benchmark's SPN is learned and
compiled once up front (:func:`repro.experiments.cache.benchmark_core`)
instead of once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.design import compose_design
from repro.experiments.cache import benchmark_core
from repro.experiments.reporting import format_series
from repro.experiments.sweep import parallel_map
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import NIPS_BENCHMARKS

__all__ = ["Fig4Result", "run_fig4", "format_fig4"]

#: Samples simulated per core by default (the paper measures 100 M per
#: run).  A plain timing-only run is folded without the event loop
#: (``InferenceRuntime._fold``): a serial 80-point sweep takes ~0.9 s at
#: 10 M per core and ~5.3 s at 64 M on a 2-vCPU host.
SAMPLES_PER_CORE = 10_000_000


@dataclass(frozen=True)
class Fig4Result:
    """Throughput series per benchmark (samples/s)."""

    pe_counts: Tuple[int, ...]
    #: benchmark -> series including host transfers (right panel).
    with_transfers: Dict[str, Tuple[float, ...]]
    #: benchmark -> series excluding host transfers (left panel).
    without_transfers: Dict[str, Tuple[float, ...]]

    def plateau_pe_count(self, benchmark: str, tolerance: float = 0.05) -> int:
        """First PE count beyond which adding a PE gains < tolerance."""
        series = self.with_transfers[benchmark]
        for index in range(1, len(series)):
            if (series[index] - series[index - 1]) / series[index - 1] < tolerance:
                return self.pe_counts[index - 1]
        return self.pe_counts[-1]


def _measure(benchmark: str, n_cores: int, transfers: bool, samples_per_core: int) -> float:
    core = benchmark_core(benchmark, "cfp")
    design = compose_design(core, n_cores, XUPVVH_HBM_PLATFORM)
    device = SimulatedDevice(design)
    runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
    n_samples = samples_per_core * n_cores
    if transfers:
        stats = runtime.run_timing_only(n_samples)
    else:
        stats = runtime.run_on_device_only(n_samples)
    return stats.samples_per_second


def _measure_point(point: Tuple[str, int, bool, int]) -> float:
    return _measure(*point)


def run_fig4(
    benchmarks: Sequence[str] = NIPS_BENCHMARKS,
    pe_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    *,
    samples_per_core: int = SAMPLES_PER_CORE,
    workers: Optional[int] = None,
) -> Fig4Result:
    """Run the Fig. 4 sweep on the simulated system.

    *workers* sets the process fan-out (default: ``REPRO_SWEEP_WORKERS``
    or the CPU count; 1 runs serially).  ``repro report`` and ``repro
    trace`` instrument one point of this sweep.
    """
    # Compile each benchmark once before fanning out, so forked workers
    # inherit the warm cache instead of compiling per point.
    for benchmark in benchmarks:
        benchmark_core(benchmark, "cfp")
    points = [
        (benchmark, n, transfers, samples_per_core)
        for benchmark in benchmarks
        for transfers in (True, False)
        for n in pe_counts
    ]
    rates = iter(parallel_map(_measure_point, points, workers=workers))
    with_transfers: Dict[str, Tuple[float, ...]] = {}
    without_transfers: Dict[str, Tuple[float, ...]] = {}
    for benchmark in benchmarks:
        with_transfers[benchmark] = tuple(next(rates) for _ in pe_counts)
        without_transfers[benchmark] = tuple(next(rates) for _ in pe_counts)
    return Fig4Result(
        pe_counts=tuple(pe_counts),
        with_transfers=with_transfers,
        without_transfers=without_transfers,
    )


def format_fig4(result: Fig4Result) -> str:
    """Render both Fig. 4 panels (samples/s in millions)."""
    left = format_series(
        "PEs",
        list(result.pe_counts),
        {
            name: [v / 1e6 for v in series]
            for name, series in result.without_transfers.items()
        },
        title="Fig. 4 (left) - w/o host transfers, Msamples/s",
    )
    right = format_series(
        "PEs",
        list(result.pe_counts),
        {
            name: [v / 1e6 for v in series]
            for name, series in result.with_transfers.items()
        },
        title="Fig. 4 (right) - end-to-end incl. transfers, Msamples/s",
    )
    return left + "\n\n" + right

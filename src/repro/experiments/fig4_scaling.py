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

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.design import compose_design
from repro.experiments.cache import benchmark_core
from repro.experiments.reporting import format_series
from repro.experiments.sweep import parallel_map
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.obs.report import UtilizationReport
from repro.obs.trace_export import SpanRecorder, export_run_trace
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import NIPS_BENCHMARKS

__all__ = ["Fig4Result", "run_fig4", "format_fig4"]

#: Samples simulated per core.  Steady-state fast-forwarding makes
#: paper-scale runs affordable, so the default sits at 10 M per core
#: (the paper measures 100 M per run).
SAMPLES_PER_CORE = 10_000_000


@dataclass(frozen=True)
class Fig4Result:
    """Throughput series per benchmark (samples/s)."""

    pe_counts: Tuple[int, ...]
    #: benchmark -> series including host transfers (right panel).
    with_transfers: Dict[str, Tuple[float, ...]]
    #: benchmark -> series excluding host transfers (left panel).
    without_transfers: Dict[str, Tuple[float, ...]]
    #: benchmark -> utilization report of one instrumented end-to-end
    #: run at the largest PE count (empty unless requested).
    utilization: Dict[str, UtilizationReport] = field(default_factory=dict)

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
    collect_utilization: bool = False,
    export_trace: Optional[str] = None,
) -> Fig4Result:
    """Run the Fig. 4 sweep on the simulated system.

    *workers* sets the process fan-out (default: ``REPRO_SWEEP_WORKERS``
    or the CPU count; 1 runs serially).  With *collect_utilization* an
    additional instrumented run per benchmark (largest PE count, host
    transfers included) produces the per-channel/per-PE
    :class:`~repro.obs.report.UtilizationReport` attached to the
    result; it is capped at 1 M samples per core because the span
    tracer forces the burst-granular core model.

    With *export_trace* a Chrome/Perfetto JSON trace of the sweep is
    written to that path: the sweep pool's wall-clock point spans land
    in the host process group, and one instrumented run of the first
    benchmark at the largest PE count contributes the simulated-clock
    DMA/PE/HBM-channel tracks (capped at 200 k samples per core).
    Export is observational — the sweep's measured rates are unchanged.
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
    recorder = (
        SpanRecorder(epoch=time.perf_counter())
        if export_trace is not None
        else None
    )
    rates = iter(
        parallel_map(
            _measure_point,
            points,
            workers=workers,
            persistent=True,
            host_tracer=recorder,
            span_track="fig4 sweep",
        )
    )
    with_transfers: Dict[str, Tuple[float, ...]] = {}
    without_transfers: Dict[str, Tuple[float, ...]] = {}
    for benchmark in benchmarks:
        with_transfers[benchmark] = tuple(next(rates) for _ in pe_counts)
        without_transfers[benchmark] = tuple(next(rates) for _ in pe_counts)
    utilization: Dict[str, UtilizationReport] = {}
    if collect_utilization:
        from repro.experiments.utilization import run_utilization

        for benchmark in benchmarks:
            utilization[benchmark] = run_utilization(
                benchmark,
                max(pe_counts),
                threads_per_pe=1,
                samples_per_core=min(samples_per_core, 1_000_000),
            )
    if export_trace is not None:
        from repro.experiments.utilization import run_traced_utilization

        capture = run_traced_utilization(
            benchmarks[0],
            max(pe_counts),
            threads_per_pe=1,
            samples_per_core=min(samples_per_core, 200_000),
        )
        export_run_trace(
            export_trace,
            tracer=capture.tracer,
            metrics=capture.metrics,
            elapsed_seconds=capture.elapsed_seconds,
            host_spans=recorder.spans,
        )
    return Fig4Result(
        pe_counts=tuple(pe_counts),
        with_transfers=with_transfers,
        without_transfers=without_transfers,
        utilization=utilization,
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
    out = left + "\n\n" + right
    if result.utilization:
        lines = [f"utilization at {max(result.pe_counts)} PEs (see `repro report`):"]
        for name, report in result.utilization.items():
            lines.append(f"  {name}: {report.summary_line()}")
        out += "\n\n" + "\n".join(lines)
    return out

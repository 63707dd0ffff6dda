"""Instrumented utilization runs (`repro report`).

Runs a fig4-style system simulation (device + multi-threaded runtime)
with the metrics registry attached and a span tracer recording
DMA/compute intervals, then fuses both into a
:class:`repro.obs.report.UtilizationReport`.  This is the measurement
the paper's central claims live in:

* per-channel achieved bandwidth vs the ~12 GiB/s Fig. 2 plateau,
* DMA↔compute overlap under 2 control threads per PE (§IV-B),
* DMA-link busy fraction approaching the PCIe limit (§V-C).

:func:`run_host_utilization` (``repro report --host``) is the same
measurement for the *other* side of the comparison: a real
batch-inference run through the zero-copy
:class:`~repro.baselines.executor.ParallelPlanExecutor` on the local
CPU, reporting per-worker busy fractions, shared-memory traffic and
dispatch overhead (see ``docs/cpu_baselines.md``).

``docs/observability.md`` maps every report field to its paper claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.executor import ParallelPlanExecutor
from repro.compiler.design import compose_design
from repro.errors import ReproError
from repro.experiments.cache import benchmark_core
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import UtilizationReport
from repro.obs.trace_export import SpanRecorder, export_run_trace
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import nips_benchmark, nips_dataset
from repro.units import MIB

__all__ = [
    "TraceCapture",
    "run_traced_utilization",
    "run_utilization",
    "run_traced_host_utilization",
    "run_host_utilization",
    "host_cpu_batch",
    "format_utilization",
]


@dataclass(frozen=True)
class TraceCapture:
    """One instrumented run's report plus its raw observability data.

    The raw tracer/metrics are what the Perfetto exporter consumes
    (:mod:`repro.obs.trace_export`); the fused report is what the
    text/JSON renderers consume.  ``tracer`` is ``None`` for untraced
    runs and host-only runs; ``host_spans`` is empty for simulated
    runs.
    """

    report: UtilizationReport
    metrics: MetricsRegistry
    elapsed_seconds: float
    tracer: Optional[SpanRecorder] = None
    host_spans: tuple = ()


def run_traced_utilization(
    benchmark: str = "NIPS10",
    n_cores: int = 2,
    *,
    threads_per_pe: int = 2,
    samples_per_core: int = 500_000,
    block_bytes: int = 1 * MIB,
    scheduling: str = "static",
    trace: bool = True,
) -> TraceCapture:
    """Run one instrumented simulation, keeping the raw tracer/metrics.

    This is :func:`run_utilization` minus the final report-only
    projection: the returned :class:`TraceCapture` still holds the
    tracer spans (DMA, PE and per-HBM-channel tracks) and the metrics
    registry, so callers can export a Chrome/Perfetto trace of the run.
    """
    core = benchmark_core(benchmark, "cfp")
    design = compose_design(core, n_cores, XUPVVH_HBM_PLATFORM)
    metrics = MetricsRegistry()
    device = SimulatedDevice(design, metrics=metrics)
    tracer: Optional[SpanRecorder] = SpanRecorder() if trace else None
    if tracer is not None:
        device.attach_tracer(tracer)
    runtime = InferenceRuntime(
        device,
        InferenceJobConfig(
            block_bytes=block_bytes,
            threads_per_pe=threads_per_pe,
            scheduling=scheduling,
        ),
        tracer=tracer,
    )
    stats = runtime.run_timing_only(samples_per_core * n_cores)
    report = UtilizationReport.from_run(
        metrics, stats.elapsed_seconds, tracer=tracer
    )
    return TraceCapture(
        report=report,
        metrics=metrics,
        elapsed_seconds=stats.elapsed_seconds,
        tracer=tracer,
    )


def run_utilization(
    benchmark: str = "NIPS10",
    n_cores: int = 2,
    *,
    threads_per_pe: int = 2,
    samples_per_core: int = 500_000,
    block_bytes: int = 1 * MIB,
    scheduling: str = "static",
    trace: bool = True,
    export_trace: Optional[str] = None,
) -> UtilizationReport:
    """Run one instrumented end-to-end simulation and report on it.

    With ``trace=True`` (the default) a tracer records DMA and PE spans
    so the report includes the DMA↔compute overlap; tracing forces the
    burst-granular core model, so very large sample counts should
    disable it and accept ``overlap = None``.

    With *export_trace* the run's spans and metrics are additionally
    written to that path as a Chrome/Perfetto JSON trace (see
    ``docs/observability.md``).  Export happens after the simulation
    finished and only reads recorded data: simulated timings are
    bit-identical with and without it.
    """
    capture = run_traced_utilization(
        benchmark,
        n_cores,
        threads_per_pe=threads_per_pe,
        samples_per_core=samples_per_core,
        block_bytes=block_bytes,
        scheduling=scheduling,
        trace=trace,
    )
    if export_trace is not None:
        export_run_trace(
            export_trace,
            tracer=capture.tracer,
            metrics=capture.metrics,
            elapsed_seconds=capture.elapsed_seconds,
        )
    return capture.report


def host_cpu_batch(
    benchmark: str, n_samples: int, *, dtype=np.float64
) -> np.ndarray:
    """A ``(n_samples, n_vars)`` inference batch for *benchmark*.

    Rows are tiled from the benchmark's synthetic corpus (the same
    distribution the SPN was learned on), converted once to *dtype* —
    C-contiguous, so the executor's zero-copy fast path applies.
    """
    if n_samples < 1:
        raise ReproError(f"n_samples must be >= 1, got {n_samples}")
    corpus = nips_dataset(benchmark)
    repeats = -(-n_samples // corpus.shape[0])
    return np.ascontiguousarray(
        np.tile(corpus, (repeats, 1))[:n_samples], dtype=dtype
    )


def run_traced_host_utilization(
    benchmark: str = "NIPS10",
    *,
    n_samples: int = 200_000,
    n_workers: Optional[int] = None,
    dtype=np.float64,
    backend: Optional[str] = None,
) -> TraceCapture:
    """Measure one instrumented executor run, keeping its host spans.

    Like :func:`run_host_utilization`, but the returned
    :class:`TraceCapture` also carries the wall-clock shard spans each
    executor worker recorded, for Perfetto export.  While the run is
    in flight the native-backend observability sinks are pointed at
    the same registry/recorder (and restored afterwards), so a
    ``backend="native"`` run surfaces its ``native.*`` counters —
    build seconds, cache hits, kernel calls — and per-call kernel
    spans next to the executor's own.
    """
    from repro.compiler.native_build import set_native_observability

    bench = nips_benchmark(benchmark)
    data = host_cpu_batch(benchmark, n_samples, dtype=dtype)
    metrics = MetricsRegistry()
    recorder = SpanRecorder(epoch=time.perf_counter())
    previous_sinks = set_native_observability(metrics, recorder)
    try:
        with ParallelPlanExecutor(
            bench.spn,
            n_workers=n_workers,
            dtype=dtype,
            backend=backend,
            metrics=metrics,
            host_tracer=recorder,
        ) as executor:
            start = time.perf_counter()
            executor.submit(data)
            elapsed = time.perf_counter() - start
    finally:
        set_native_observability(*previous_sinks)
    return TraceCapture(
        report=UtilizationReport.from_run(metrics, elapsed),
        metrics=metrics,
        elapsed_seconds=elapsed,
        host_spans=tuple(recorder.spans),
    )


def run_host_utilization(
    benchmark: str = "NIPS10",
    *,
    n_samples: int = 200_000,
    n_workers: Optional[int] = None,
    dtype=np.float64,
    backend: Optional[str] = None,
    export_trace: Optional[str] = None,
) -> UtilizationReport:
    """Measure one instrumented executor run on the local CPU.

    Builds a :class:`~repro.baselines.executor.ParallelPlanExecutor`
    for the benchmark's SPN with a metrics registry attached, submits
    one *n_samples*-row batch, and fuses the ``executor.*`` metrics
    into a host-only :class:`~repro.obs.report.UtilizationReport`
    (the simulated-hardware sections stay empty).  *backend* picks the
    executor's evaluation backend (``"native"`` also records the
    ``native.*`` build/call counters).  With *export_trace* the
    per-worker wall-clock shard spans are written to that path as a
    Chrome/Perfetto JSON trace.
    """
    capture = run_traced_host_utilization(
        benchmark,
        n_samples=n_samples,
        n_workers=n_workers,
        dtype=dtype,
        backend=backend,
    )
    if export_trace is not None:
        export_run_trace(
            export_trace,
            metrics=capture.metrics,
            elapsed_seconds=capture.elapsed_seconds,
            host_spans=capture.host_spans,
        )
    return capture.report


def format_utilization(
    report: UtilizationReport,
    *,
    benchmark: Optional[str] = None,
) -> str:
    """Render a report with an optional benchmark heading."""
    title = "Utilization report"
    if benchmark is not None:
        title += f" - {benchmark}"
    return title + "\n" + report.format_text()

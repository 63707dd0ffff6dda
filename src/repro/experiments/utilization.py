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

Both return a :class:`TraceCapture`: ``repro report`` prints its
``.report``, ``repro trace`` exports its ``.tracer``, ``.metrics`` and
``.host_spans``.  ``docs/observability.md`` maps every report field to
its paper claim.
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
from repro.obs.trace_export import SpanRecorder
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import nips_benchmark, nips_dataset
from repro.units import MIB

__all__ = [
    "TraceCapture",
    "run_utilization",
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


def run_utilization(
    benchmark: str = "NIPS10",
    n_cores: int = 2,
    *,
    threads_per_pe: int = 2,
    samples_per_core: int = 500_000,
    block_bytes: int = 1 * MIB,
    scheduling: str = "static",
    trace: bool = True,
) -> TraceCapture:
    """Run one instrumented end-to-end simulation and report on it.

    With ``trace=True`` (the default) a tracer records DMA, PE and
    per-HBM-channel spans so the report includes the DMA↔compute
    overlap; tracing forces the burst-granular core model, so very large
    sample counts should disable it and accept ``overlap = None``.
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


def run_host_utilization(
    benchmark: str = "NIPS10",
    *,
    n_samples: int = 200_000,
    n_workers: Optional[int] = None,
    dtype=np.float64,
    backend: Optional[str] = None,
) -> TraceCapture:
    """Measure one instrumented executor run on the local CPU.

    Builds a :class:`~repro.baselines.executor.ParallelPlanExecutor`
    for the benchmark's SPN with a metrics registry and a span recorder
    attached, submits one *n_samples*-row batch, and fuses the
    ``executor.*`` metrics into a host-only
    :class:`~repro.obs.report.UtilizationReport` (the simulated-hardware
    sections stay empty).  The capture's ``host_spans`` are the
    wall-clock shard spans each executor worker recorded.  *backend*
    picks the executor's evaluation backend; while the run is in flight
    the native-backend observability sinks point at the same
    registry/recorder (and are restored afterwards), so a
    ``backend="native"`` run also carries its ``native.*`` counters —
    build seconds, cache hits, kernel calls — and per-call kernel spans.
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

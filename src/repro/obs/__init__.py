"""Observability: metrics, tracing, telemetry export, reports.

See :mod:`repro.obs.metrics` for the registry the simulated components
update (counters, gauges, time-weighted stats and log-bucketed
:class:`LogHistogram` latency histograms), :mod:`repro.obs.rtrace` for
request-scoped tracing through the serving datapath,
:mod:`repro.obs.exporter` for streaming telemetry snapshots
(Prometheus text / JSON) and SLO error-budget burn tracking,
:mod:`repro.obs.report` for the fused :class:`UtilizationReport` and
:mod:`repro.obs.trace_export` for the Chrome/Perfetto exporter
(``repro trace``); ``docs/observability.md`` maps every report field
to the paper claim it measures.  The repo's own performance is
measured by the end-to-end benchmark, ``benchmarks/e2e/run.py``.
"""

from repro.obs.exporter import (
    PeriodicTelemetryWriter,
    SLOTracker,
    TelemetryServer,
    TelemetrySnapshotter,
)
from repro.obs.hist import LogHistogram
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, TimeWeightedStat
from repro.obs.report import (
    ChannelUtilization,
    DmaUtilization,
    ExecutorUtilization,
    MemoryBlockStats,
    PEUtilization,
    ServingStageLatency,
    ServingUtilization,
    UtilizationReport,
    WorkerUtilization,
)
from repro.obs.rtrace import (
    RequestTrace,
    RequestTraceRecorder,
    add_request_flows,
)
from repro.obs.trace_export import (
    ChromeTraceBuilder,
    HostSpan,
    HostSpanRecorder,
    export_run_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "TimeWeightedStat",
    "ChannelUtilization",
    "DmaUtilization",
    "ExecutorUtilization",
    "MemoryBlockStats",
    "PEUtilization",
    "ServingStageLatency",
    "ServingUtilization",
    "UtilizationReport",
    "WorkerUtilization",
    "RequestTrace",
    "RequestTraceRecorder",
    "add_request_flows",
    "PeriodicTelemetryWriter",
    "SLOTracker",
    "TelemetryServer",
    "TelemetrySnapshotter",
    "ChromeTraceBuilder",
    "HostSpan",
    "HostSpanRecorder",
    "export_run_trace",
]

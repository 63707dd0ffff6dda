"""Observability: metrics, tracing, reports.

See :mod:`repro.obs.metrics` for the registry that reads the
components' registered stat fields (counters and gauges) and holds
time-weighted stats and log-bucketed :class:`LogHistogram` latency
histograms, :mod:`repro.obs.rtrace` for
request-scoped tracing through the serving datapath,
:mod:`repro.obs.report` for the fused :class:`UtilizationReport` and
:mod:`repro.obs.trace_export` for the one span model — :class:`Span`
and :class:`SpanRecorder`, shared by simulated-clock and host
wall-clock tracing — and its Chrome/Perfetto exporter (``repro
trace``); ``docs/observability.md`` maps every report field
to the paper claim it measures.  The repo's own performance is
measured by the end-to-end benchmark, ``benchmarks/e2e/run.py``.
"""

from repro.obs.hist import LogHistogram
from repro.obs.metrics import Counter, MetricsRegistry, TimeWeightedStat
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
    Span,
    SpanRecorder,
    export_run_trace,
)

__all__ = [
    "Counter",
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
    "ChromeTraceBuilder",
    "Span",
    "SpanRecorder",
    "export_run_trace",
]

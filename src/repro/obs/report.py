"""Utilization reports: fusing metrics with tracer spans.

A :class:`UtilizationReport` condenses one runtime execution into the
quantities the paper's claims are stated in:

* **per-channel achieved vs plateau bandwidth** — bytes moved divided
  by channel busy time, against the ~12 GiB/s Fig. 2 plateau the
  channel saturates at for 1 MiB requests;
* **per-PE busy %** — compute plus dispatch occupancy over the run,
  the §IV-B dispatch-overhead discussion made measurable;
* **DMA↔compute overlap** — simulated time during which a host
  transfer and an accelerator job were in flight simultaneously, the
  §IV-B "two control threads per PE" claim (requires a
  :class:`~repro.obs.trace_export.SpanRecorder` on the run);
* **DMA link busy %** — how close the shared PCIe DMA engine is to the
  §V-C scaling limit;
* **allocator health** — allocations, transient failures and the
  high-water mark of each HBM block's device memory;
* **host-CPU executor occupancy** — when the run went through the
  zero-copy :class:`~repro.baselines.executor.ParallelPlanExecutor`
  (``executor.*`` metrics present), per-worker busy fractions and
  shared-memory traffic;
* **serving datapath accounting** — when the run went through the
  micro-batching broker (``serving.*`` metrics present), request/
  batch/shed counts and the per-stage latency decomposition
  (``serving.batch_form`` → ``serving.scatter``) recorded by the
  broker's log-bucketed histograms (:mod:`repro.obs.hist`).

Reports are plain frozen dataclasses of primitives: picklable (so
sweep workers can return them) and exportable as JSON for downstream
tooling.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import intersection_length, merged_intervals
from repro.units import GIB

__all__ = [
    "ChannelUtilization",
    "PEUtilization",
    "DmaUtilization",
    "MemoryBlockStats",
    "WorkerUtilization",
    "ExecutorUtilization",
    "ServingStageLatency",
    "ServingUtilization",
    "UtilizationReport",
]

#: Stage histogram names reported in the serving section, path order.
_SERVING_STAGES = (
    "batch_form", "queue_wait", "dispatch", "kernel", "scatter", "e2e",
)


@dataclass(frozen=True)
class ChannelUtilization:
    """One HBM pseudo-channel's traffic and bandwidth efficiency."""

    index: int
    requests: int
    bytes_read: int
    bytes_written: int
    busy_seconds: float
    #: Always 0: refresh is folded into the channel's data rate.  Kept
    #: only for the end-to-end benchmark's probe, which reads it; it
    #: goes with that benchmark's next change.
    refresh_stall_seconds: float
    #: The Fig. 2 saturation bandwidth the channel is judged against.
    plateau_bandwidth: float
    #: Bytes moved per second of channel busy time.
    achieved_bandwidth: float
    #: ``achieved_bandwidth / plateau_bandwidth``.
    plateau_fraction: float
    #: Channel busy time over the run's elapsed time.
    busy_fraction: float


@dataclass(frozen=True)
class PEUtilization:
    """One accelerator core's occupancy over the run."""

    index: int
    jobs: int
    samples: int
    compute_seconds: float
    dispatch_seconds: float
    #: (compute + dispatch) over the run's elapsed time.
    busy_fraction: float


@dataclass(frozen=True)
class DmaUtilization:
    """The shared PCIe DMA engine's occupancy over the run."""

    requests_h2d: int
    requests_d2h: int
    bytes_h2d: int
    bytes_d2h: int
    busy_seconds: float
    busy_fraction: float


@dataclass(frozen=True)
class MemoryBlockStats:
    """Device-memory-manager accounting for one HBM block."""

    block: int
    allocs: int
    frees: int
    transient_failures: int
    high_water_bytes: int


@dataclass(frozen=True)
class WorkerUtilization:
    """One host-CPU executor worker process's occupancy over the run."""

    index: int
    busy_seconds: float
    #: Worker busy time over the run's elapsed time.
    busy_fraction: float


@dataclass(frozen=True)
class ExecutorUtilization:
    """Host-CPU :class:`~repro.baselines.executor.ParallelPlanExecutor`
    accounting (see ``docs/cpu_baselines.md``)."""

    submits: int
    rows: int
    shards: int
    #: Batch bytes staged into the shared input buffer.
    bytes_in: int
    #: Result bytes collected from the shared output buffer.
    bytes_out: int
    #: Wall time not covered by the busiest worker (fan-out overhead).
    dispatch_seconds: float
    compute_seconds: float
    workers: Tuple[WorkerUtilization, ...]


@dataclass(frozen=True)
class ServingStageLatency:
    """One serving-datapath stage's latency histogram summary."""

    stage: str
    count: int
    p50_ms: float
    p99_ms: float


@dataclass(frozen=True)
class ServingUtilization:
    """Micro-batching broker accounting (see ``docs/serving.md``).

    Stage summaries come from the broker's per-stage
    :class:`~repro.obs.hist.LogHistogram` instruments; the stages
    partition the end-to-end path, so their medians sum to roughly
    the ``e2e`` median (the serving selftest gates on 10%).
    """

    requests: int
    rejected: int
    batches: int
    rows: int
    #: Mean rows coalesced per dispatched batch.
    mean_batch_rows: float
    stages: Tuple[ServingStageLatency, ...]


@dataclass(frozen=True)
class UtilizationReport:
    """Fused utilization view of one runtime execution."""

    elapsed_seconds: float
    pes: Tuple[PEUtilization, ...]
    channels: Tuple[ChannelUtilization, ...]
    dma: DmaUtilization
    memory: Tuple[MemoryBlockStats, ...]
    #: Simulated seconds during which a DMA transfer and a PE job were
    #: simultaneously in flight; ``None`` when the run had no tracer.
    dma_compute_overlap_seconds: Optional[float]
    #: Overlap over elapsed time; ``None`` without a tracer.
    dma_compute_overlap_fraction: Optional[float]
    #: Host-CPU executor accounting; ``None`` unless the run recorded
    #: ``executor.*`` metrics.
    executor: Optional[ExecutorUtilization] = None
    #: Serving-broker accounting; ``None`` unless the run recorded
    #: ``serving.*`` metrics.
    serving: Optional[ServingUtilization] = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        metrics: MetricsRegistry,
        elapsed_seconds: float,
        *,
        tracer=None,
    ) -> "UtilizationReport":
        """Fuse *metrics* (and optional *tracer* spans) into a report.

        PE/channel/block indices are discovered from the registry, so
        the caller only supplies what the instrumentation recorded.
        """
        window = max(elapsed_seconds, 0.0)

        def fraction(seconds: float) -> float:
            return seconds / window if window > 0 else 0.0

        pes: List[PEUtilization] = []
        index = 0
        while metrics.has(f"pe{index}.jobs"):
            compute = metrics.value(f"pe{index}.busy_seconds")
            dispatch = metrics.value(f"pe{index}.dispatch_seconds")
            pes.append(
                PEUtilization(
                    index=index,
                    jobs=int(metrics.value(f"pe{index}.jobs")),
                    samples=int(metrics.value(f"pe{index}.samples")),
                    compute_seconds=compute,
                    dispatch_seconds=dispatch,
                    busy_fraction=fraction(compute + dispatch),
                )
            )
            index += 1

        # All pseudo-channels are instrumented, but only the ones the
        # deployed cores own ever see traffic; idle channels are not
        # part of a utilization statement and are dropped.
        channels: List[ChannelUtilization] = []
        index = 0
        while metrics.has(f"hbm.ch{index}.plateau_bandwidth"):
            prefix = f"hbm.ch{index}"
            busy = metrics.value(prefix + ".busy_seconds")
            moved = metrics.value(prefix + ".bytes_read") + metrics.value(
                prefix + ".bytes_written"
            )
            if moved == 0 and busy == 0:
                index += 1
                continue
            plateau = metrics.value(prefix + ".plateau_bandwidth")
            achieved = moved / busy if busy > 0 else 0.0
            channels.append(
                ChannelUtilization(
                    index=index,
                    requests=int(metrics.value(prefix + ".requests")),
                    bytes_read=int(metrics.value(prefix + ".bytes_read")),
                    bytes_written=int(metrics.value(prefix + ".bytes_written")),
                    busy_seconds=busy,
                    refresh_stall_seconds=metrics.value(
                        prefix + ".refresh_stall_seconds"
                    ),
                    plateau_bandwidth=plateau,
                    achieved_bandwidth=achieved,
                    plateau_fraction=achieved / plateau if plateau > 0 else 0.0,
                    busy_fraction=fraction(busy),
                )
            )
            index += 1

        dma_busy = metrics.value("dma.busy_seconds")
        dma = DmaUtilization(
            requests_h2d=int(metrics.value("dma.requests_h2d")),
            requests_d2h=int(metrics.value("dma.requests_d2h")),
            bytes_h2d=int(metrics.value("dma.bytes_h2d")),
            bytes_d2h=int(metrics.value("dma.bytes_d2h")),
            busy_seconds=dma_busy,
            busy_fraction=fraction(dma_busy),
        )

        memory: List[MemoryBlockStats] = []
        index = 0
        while metrics.has(f"mem.block{index}.allocated_bytes"):
            prefix = f"mem.block{index}"
            memory.append(
                MemoryBlockStats(
                    block=index,
                    allocs=int(metrics.value(prefix + ".allocs")),
                    frees=int(metrics.value(prefix + ".frees")),
                    transient_failures=int(
                        metrics.value(prefix + ".alloc_failures")
                    ),
                    high_water_bytes=int(metrics.maximum(prefix + ".allocated_bytes")),
                )
            )
            index += 1

        executor: Optional[ExecutorUtilization] = None
        if metrics.has("executor.submits"):
            workers: List[WorkerUtilization] = []
            index = 0
            while metrics.has(f"executor.worker{index}.busy_seconds"):
                busy = metrics.value(f"executor.worker{index}.busy_seconds")
                workers.append(
                    WorkerUtilization(
                        index=index,
                        busy_seconds=busy,
                        busy_fraction=fraction(busy),
                    )
                )
                index += 1
            executor = ExecutorUtilization(
                submits=int(metrics.value("executor.submits")),
                rows=int(metrics.value("executor.rows")),
                shards=int(metrics.value("executor.shards")),
                bytes_in=int(metrics.value("executor.bytes_in")),
                bytes_out=int(metrics.value("executor.bytes_out")),
                dispatch_seconds=metrics.value("executor.dispatch_seconds"),
                compute_seconds=metrics.value("executor.compute_seconds"),
                workers=tuple(workers),
            )

        serving: Optional[ServingUtilization] = None
        if metrics.has("serving.requests"):
            batches = int(metrics.value("serving.batches"))
            rows = int(metrics.value("serving.rows"))
            stages: List[ServingStageLatency] = []
            for stage in _SERVING_STAGES:
                name = f"serving.{stage}"
                if not metrics.has(name):
                    continue
                hist = metrics.histogram(name)
                if hist.count == 0:
                    continue
                stages.append(
                    ServingStageLatency(
                        stage=stage,
                        count=hist.count,
                        p50_ms=hist.p50 * 1e3,
                        p99_ms=hist.p99 * 1e3,
                    )
                )
            serving = ServingUtilization(
                requests=int(metrics.value("serving.requests")),
                rejected=int(metrics.value("serving.rejected")),
                batches=batches,
                rows=rows,
                mean_batch_rows=rows / batches if batches else 0.0,
                stages=tuple(stages),
            )

        overlap_seconds: Optional[float] = None
        overlap_fraction: Optional[float] = None
        if tracer is not None:
            dma_spans = merged_intervals(
                (s.begin, s.end) for s in tracer.spans if s.track.startswith("dma")
            )
            pe_spans = merged_intervals(
                (s.begin, s.end) for s in tracer.spans if s.track.startswith("pe")
            )
            overlap_seconds = intersection_length(dma_spans, pe_spans)
            overlap_fraction = fraction(overlap_seconds)

        return cls(
            elapsed_seconds=elapsed_seconds,
            pes=tuple(pes),
            channels=tuple(channels),
            dma=dma,
            memory=tuple(memory),
            dma_compute_overlap_seconds=overlap_seconds,
            dma_compute_overlap_fraction=overlap_fraction,
            executor=executor,
            serving=serving,
        )

    # -- export -----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict (JSON-serialisable) form of the report."""
        out = asdict(self)
        for key in ("pes", "channels", "memory"):
            out[key] = list(out[key])
        if out["executor"] is not None:
            out["executor"]["workers"] = list(out["executor"]["workers"])
        if out["serving"] is not None:
            out["serving"]["stages"] = list(out["serving"]["stages"])
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary_line(self) -> str:
        """One-line digest (used by the fig4/fig6 output wiring)."""
        parts = []
        if self.channels:
            worst = min(self.channels, key=lambda c: c.plateau_fraction)
            parts.append(
                f"ch bw {worst.achieved_bandwidth / GIB:.2f} GiB/s "
                f"({worst.plateau_fraction:.0%} of plateau)"
            )
        if self.pes:
            mean_busy = sum(p.busy_fraction for p in self.pes) / len(self.pes)
            parts.append(f"PE busy {mean_busy:.0%}")
        if self.executor is None or self.dma.requests_h2d or self.dma.requests_d2h:
            parts.append(f"DMA busy {self.dma.busy_fraction:.0%}")
        if self.dma_compute_overlap_fraction is not None:
            parts.append(f"overlap {self.dma_compute_overlap_fraction:.0%}")
        if self.executor is not None and self.executor.workers:
            mean_busy = sum(
                w.busy_fraction for w in self.executor.workers
            ) / len(self.executor.workers)
            parts.append(
                f"host workers busy {mean_busy:.0%} "
                f"({self.executor.shards} shards)"
            )
        if self.serving is not None:
            digest = (
                f"serving {self.serving.requests} reqs "
                f"({self.serving.rejected} shed)"
            )
            e2e = next(
                (s for s in self.serving.stages if s.stage == "e2e"), None
            )
            if e2e is not None:
                digest += f", e2e p99 {e2e.p99_ms:.2f} ms"
            parts.append(digest)
        return ", ".join(parts)

    def format_text(self) -> str:
        """Render the full report as an aligned text block.

        Host-CPU-only reports (executor metrics, no device) skip the
        simulated-hardware sections instead of printing empty tables.
        """
        lines = [f"utilization report over {self.elapsed_seconds * 1e3:.3f} ms"]
        host_only = self.executor is not None and not (
            self.pes or self.channels or self.memory
        )
        if host_only:
            lines.extend(self._format_executor_lines())
            if self.serving is not None:
                lines.extend(self._format_serving_lines())
            return "\n".join(lines)
        lines.append("  PEs:")
        for pe in self.pes:
            lines.append(
                f"    pe{pe.index}: {pe.jobs} jobs, {pe.samples} samples, "
                f"busy {pe.busy_fraction:.1%} "
                f"(compute {pe.compute_seconds * 1e3:.3f} ms, "
                f"dispatch {pe.dispatch_seconds * 1e3:.3f} ms)"
            )
        lines.append("  HBM channels:")
        for ch in self.channels:
            lines.append(
                f"    ch{ch.index}: {ch.requests} reqs, "
                f"{(ch.bytes_read + ch.bytes_written) / 1e6:.2f} MB moved, "
                f"achieved {ch.achieved_bandwidth / GIB:.2f} GiB/s = "
                f"{ch.plateau_fraction:.1%} of the "
                f"{ch.plateau_bandwidth / GIB:.2f} GiB/s plateau, "
                f"busy {ch.busy_fraction:.1%}"
            )
        dma = self.dma
        lines.append(
            f"  DMA: {dma.requests_h2d}+{dma.requests_d2h} reqs, "
            f"{dma.bytes_h2d / 1e6:.2f} MB h2d / {dma.bytes_d2h / 1e6:.2f} MB d2h, "
            f"busy {dma.busy_fraction:.1%}"
        )
        if self.dma_compute_overlap_seconds is not None:
            lines.append(
                f"  DMA/compute overlap: "
                f"{self.dma_compute_overlap_seconds * 1e3:.3f} ms "
                f"({self.dma_compute_overlap_fraction:.1%} of elapsed)"
            )
        lines.append("  device memory:")
        for block in self.memory:
            lines.append(
                f"    block{block.block}: {block.allocs} allocs "
                f"({block.transient_failures} transient failures), "
                f"high water {block.high_water_bytes / 1e6:.2f} MB"
            )
        if self.executor is not None:
            lines.extend(self._format_executor_lines())
        if self.serving is not None:
            lines.extend(self._format_serving_lines())
        return "\n".join(lines)

    def _format_executor_lines(self) -> List[str]:
        """Render the host-CPU executor section of :meth:`format_text`."""
        ex = self.executor
        assert ex is not None
        lines = [
            "  host CPU executor:",
            f"    {ex.submits} submits, {ex.rows} rows in {ex.shards} shards, "
            f"{ex.bytes_in / 1e6:.2f} MB staged in / "
            f"{ex.bytes_out / 1e6:.2f} MB out via shared memory",
            f"    compute {ex.compute_seconds * 1e3:.3f} ms, "
            f"dispatch overhead {ex.dispatch_seconds * 1e3:.3f} ms",
        ]
        for worker in ex.workers:
            lines.append(
                f"    worker{worker.index}: "
                f"busy {worker.busy_seconds * 1e3:.3f} ms "
                f"({worker.busy_fraction:.1%} of elapsed)"
            )
        return lines

    def _format_serving_lines(self) -> List[str]:
        """Render the serving-broker section of :meth:`format_text`."""
        sv = self.serving
        assert sv is not None
        lines = [
            "  serving broker:",
            f"    {sv.requests} requests ({sv.rejected} shed), "
            f"{sv.rows} rows in {sv.batches} batches "
            f"(mean {sv.mean_batch_rows:.1f} rows/batch)",
        ]
        for stage in sv.stages:
            lines.append(
                f"    {stage.stage}: p50 {stage.p50_ms:.3f} ms, "
                f"p99 {stage.p99_ms:.3f} ms ({stage.count} obs)"
            )
        return lines

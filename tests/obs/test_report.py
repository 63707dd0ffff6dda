"""Utilization-report acceptance tests.

Covers the paper-facing claims the observability layer exists for:
per-channel achieved bandwidth within 5% of the Fig. 2 plateau at
1 MiB streaming blocks, DMA↔compute overlap under two control threads
per PE (§IV-B), and the zero-perturbation invariant — simulated
timings bit-identical with and without a registry attached.
"""

import json
import pickle
import struct
from types import SimpleNamespace

import pytest

from repro.compiler.design import compose_design
from repro.experiments.cache import benchmark_core
from repro.experiments.utilization import format_utilization, run_utilization
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import UtilizationReport
from repro.obs.trace_export import SpanRecorder
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.units import GIB, MIB


@pytest.fixture(scope="module")
def report() -> UtilizationReport:
    """One instrumented fig4-style run: NIPS10, 2 cores, 2 threads/PE."""
    return run_utilization(
        "NIPS10",
        2,
        threads_per_pe=2,
        samples_per_core=400_000,
        block_bytes=1 * MIB,
    ).report


class TestUtilizationReport:
    def test_channels_within_5pct_of_fig2_plateau(self, report):
        assert report.channels, "active channels must be reported"
        for channel in report.channels:
            assert channel.plateau_bandwidth == pytest.approx(12.0 * GIB, rel=0.01)
            assert channel.plateau_fraction >= 0.95
            assert channel.achieved_bandwidth <= channel.plateau_bandwidth

    def test_dma_compute_overlap_with_two_threads(self, report):
        assert report.dma_compute_overlap_seconds is not None
        assert report.dma_compute_overlap_seconds > 0
        assert 0 < report.dma_compute_overlap_fraction <= 1

    def test_pe_and_dma_sections_are_populated(self, report):
        assert len(report.pes) == 2
        for pe in report.pes:
            assert pe.jobs > 0
            assert pe.samples > 0
            assert 0 < pe.busy_fraction <= 1
            assert pe.dispatch_seconds > 0
        assert report.dma.requests_h2d > 0
        assert report.dma.requests_d2h > 0
        assert 0 < report.dma.busy_fraction <= 1

    def test_memory_sections_track_high_water(self, report):
        assert report.memory
        for block in report.memory:
            assert block.allocs > 0
            assert block.high_water_bytes > 0
            assert block.transient_failures == 0

    def test_json_round_trip(self, report):
        decoded = json.loads(report.to_json())
        assert decoded == report.to_dict()
        assert decoded["elapsed_seconds"] == report.elapsed_seconds
        assert len(decoded["channels"]) == len(report.channels)

    def test_to_dict_uses_only_json_native_types(self, report):
        """Regression guard for the exporters: every leaf of to_dict()
        (and of MetricsRegistry.snapshot()) must be a JSON-native type,
        not e.g. a numpy scalar that json.dumps would reject."""

        def walk(value, path):
            if isinstance(value, dict):
                for key, child in value.items():
                    assert type(key) is str, f"non-str key at {path}: {key!r}"
                    walk(child, f"{path}.{key}")
            elif isinstance(value, (list, tuple)):
                for index, child in enumerate(value):
                    walk(child, f"{path}[{index}]")
            else:
                assert value is None or type(value) in (bool, int, float, str), (
                    f"non-JSON leaf at {path}: {type(value).__name__}"
                )

        walk(report.to_dict(), "report")
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.register_stats(
            SimpleNamespace(level=1.5, peak=1.5), "x", (),
            gauges={"g": ("level", "peak")},
        )
        registry.time_stat("t").update(1.0, now=0.0)
        walk(registry.snapshot(), "snapshot")
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_report_is_picklable(self, report):
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report

    def test_render_helpers(self, report):
        text = format_utilization(report, benchmark="NIPS10")
        assert "NIPS10" in text
        assert "plateau" in text
        assert "overlap" in text
        summary = report.summary_line()
        assert "of plateau" in summary
        assert "overlap" in summary

    def test_overlap_is_none_without_tracer(self):
        untraced = run_utilization(
            "NIPS10", 1, threads_per_pe=1, samples_per_core=200_000, trace=False
        ).report
        assert untraced.dma_compute_overlap_seconds is None
        assert untraced.dma_compute_overlap_fraction is None
        assert untraced.channels

    def test_saturated_dma_busy_at_most_elapsed(self):
        """NIPS10 on 8 PEs is PCIe-bound (Fig. 4 right): the one shared
        engine drains almost all the time, and never longer than the
        run.  Setup latencies of queued transfers overlap, so they are
        not engine occupancy."""
        saturated = run_utilization(
            "NIPS10", 8, threads_per_pe=1, samples_per_core=1_000_000, trace=False
        ).report
        assert saturated.dma.busy_fraction <= 1.0
        assert saturated.dma.busy_fraction == pytest.approx(1.0, rel=0.05)


def _elapsed(metrics, *, trace=False, **config):
    core = benchmark_core("NIPS20", "cfp")
    design = compose_design(core, 2, XUPVVH_HBM_PLATFORM)
    device = SimulatedDevice(design, metrics=metrics)
    tracer = SpanRecorder() if trace else None
    runtime = InferenceRuntime(
        device, InferenceJobConfig(**config), tracer=tracer
    )
    return runtime.run_timing_only(300_000).elapsed_seconds


class TestZeroPerturbation:
    """Metrics must not move a single event: timings bit-identical."""

    @pytest.mark.parametrize(
        "config",
        [
            {"threads_per_pe": 1},
            {"threads_per_pe": 2},
            {"scheduling": "shared"},
        ],
        ids=["fast-forward", "two-threads", "shared"],
    )
    def test_fast_forward_paths(self, config):
        bare = _elapsed(None, **config)
        instrumented = _elapsed(MetricsRegistry(), **config)
        assert struct.pack("<d", bare) == struct.pack("<d", instrumented)

    def test_burst_granular_path(self):
        # A tracer forces the burst-granular core model, exercising the
        # per-request callbacks instead of the analytic fast path.
        bare = _elapsed(None, trace=True, threads_per_pe=2)
        instrumented = _elapsed(MetricsRegistry(), trace=True, threads_per_pe=2)
        assert struct.pack("<d", bare) == struct.pack("<d", instrumented)

    def test_fast_forward_and_granular_metrics_agree(self):
        # The analytic fast path accounts the same totals the granular
        # callbacks would (busy time telescopes to the per-request sum).
        fast = MetricsRegistry()
        granular = MetricsRegistry()
        _elapsed(fast, threads_per_pe=1)
        _elapsed(granular, trace=True, threads_per_pe=1)
        for name in ("requests", "bytes_read", "bytes_written"):
            assert fast.value(f"hbm.ch0.{name}") == granular.value(
                f"hbm.ch0.{name}"
            )
        assert fast.value("hbm.ch0.busy_seconds") == pytest.approx(
            granular.value("hbm.ch0.busy_seconds")
        )


class TestHostExecutorSection:
    """The executor.* metrics fuse into a host-CPU report section."""

    def _registry(self) -> MetricsRegistry:
        metrics = MetricsRegistry()
        metrics.counter("executor.submits").add(2)
        metrics.counter("executor.rows").add(1000)
        metrics.counter("executor.shards").add(8)
        metrics.counter("executor.bytes_in").add(64_000)
        metrics.counter("executor.bytes_out").add(8_000)
        metrics.counter("executor.dispatch_seconds").add(0.01)
        metrics.counter("executor.compute_seconds").add(0.09)
        metrics.counter("executor.worker0.busy_seconds").add(0.05)
        metrics.counter("executor.worker1.busy_seconds").add(0.04)
        return metrics

    def test_executor_discovered_from_metrics(self):
        report = UtilizationReport.from_run(self._registry(), 0.1)
        ex = report.executor
        assert ex is not None
        assert ex.submits == 2 and ex.rows == 1000 and ex.shards == 8
        assert ex.bytes_in == 64_000 and ex.bytes_out == 8_000
        assert len(ex.workers) == 2
        assert ex.workers[0].busy_fraction == pytest.approx(0.5)
        assert ex.workers[1].busy_fraction == pytest.approx(0.4)

    def test_absent_without_executor_metrics(self):
        report = UtilizationReport.from_run(MetricsRegistry(), 0.1)
        assert report.executor is None

    def test_host_only_rendering_and_export(self):
        report = UtilizationReport.from_run(self._registry(), 0.1)
        text = report.format_text()
        assert "host CPU executor" in text
        assert "worker1" in text
        # Host-only reports skip the empty simulated-hardware tables.
        assert "HBM channels" not in text
        summary = report.summary_line()
        assert "host workers busy" in summary
        assert "DMA" not in summary
        exported = json.loads(report.to_json())
        assert exported["executor"]["workers"][1]["index"] == 1


class TestServingSection:
    """The report's serving-broker section (``serving.*`` metrics)."""

    @staticmethod
    def _registry():
        metrics = MetricsRegistry()
        metrics.counter("serving.requests").add(100)
        metrics.counter("serving.rejected").add(4)
        metrics.counter("serving.batches").add(10)
        metrics.counter("serving.rows").add(100)
        for stage, value in (
            ("batch_form", 0.001),
            ("kernel", 0.002),
            ("e2e", 0.004),
        ):
            hist = metrics.histogram(f"serving.{stage}")
            for _ in range(96):
                hist.record(value)
        return metrics

    def test_section_built_from_serving_metrics(self):
        report = UtilizationReport.from_run(self._registry(), 0.5)
        sv = report.serving
        assert sv is not None
        assert sv.requests == 100 and sv.rejected == 4
        assert sv.mean_batch_rows == pytest.approx(10.0)
        stages = {s.stage: s for s in sv.stages}
        # Only recorded histograms appear, in path order.
        assert list(stages) == ["batch_form", "kernel", "e2e"]
        assert stages["e2e"].count == 96
        assert stages["e2e"].p50_ms == pytest.approx(4.0, rel=0.05)

    def test_absent_without_serving_metrics(self):
        report = UtilizationReport.from_run(MetricsRegistry(), 0.1)
        assert report.serving is None

    def test_rendering_and_json_export(self):
        report = UtilizationReport.from_run(self._registry(), 0.5)
        text = report.format_text()
        assert "serving broker:" in text
        assert "100 requests (4 shed)" in text
        assert "e2e: p50" in text
        assert "serving 100 reqs (4 shed)" in report.summary_line()
        exported = json.loads(report.to_json())
        assert exported["serving"]["stages"][0]["stage"] == "batch_form"

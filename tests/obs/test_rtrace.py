"""Unit tests for request-scoped tracing (sampling, stamps, flows)."""

import pytest

from repro.errors import ReproError
from repro.obs.rtrace import (
    REQUEST_STAGES,
    STAGE_HISTOGRAMS,
    RequestTrace,
    RequestTraceRecorder,
    add_request_flows,
    stage_partition_problems,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import HOST_PID, ChromeTraceBuilder


def _completed_trace(trace_id=0, *, lane=0, worker=None, base=100.0):
    trace = RequestTrace(trace_id)
    for offset, stage in enumerate(REQUEST_STAGES):
        trace.stamp(stage, base + offset * 0.001)
    trace.lane = lane
    trace.worker_track = worker
    return trace


class TestRequestTrace:
    def test_stage_seconds_partition_e2e_exactly(self):
        trace = _completed_trace()
        stages = trace.stage_seconds()
        assert set(stages) == {name for name, _, _ in STAGE_HISTOGRAMS}
        assert sum(stages.values()) == pytest.approx(
            trace.complete - trace.enqueue, abs=1e-12
        )

    def test_unknown_stage_rejected(self):
        trace = RequestTrace(0)
        with pytest.raises(ReproError, match="unknown request stage"):
            trace.stamp("teleport", 1.0)

    def test_incomplete_trace_refuses_stage_seconds(self):
        trace = RequestTrace(0)
        trace.stamp("enqueue", 1.0)
        assert not trace.is_complete
        with pytest.raises(ReproError, match="incomplete"):
            trace.stage_seconds()

    def test_shed_trace_is_never_complete(self):
        trace = _completed_trace()
        assert trace.is_complete
        trace.shed = True
        assert not trace.is_complete

    def test_to_dict_is_json_native(self):
        import json

        payload = json.loads(json.dumps(_completed_trace(7).to_dict()))
        assert payload["trace_id"] == 7
        assert payload["shed"] is False
        assert all(stage in payload for stage in REQUEST_STAGES)


class TestRecorder:
    def test_samples_first_request_and_every_nth(self):
        recorder = RequestTraceRecorder(sample_every=4)
        hits = [recorder.sample() is not None for _ in range(12)]
        assert hits == [True, False, False, False] * 3
        assert recorder.seen == 12
        assert recorder.sampled == 3

    def test_sample_every_one_samples_everything(self):
        recorder = RequestTraceRecorder(sample_every=1)
        assert all(recorder.sample() is not None for _ in range(5))

    def test_ring_is_bounded_and_keeps_newest(self):
        recorder = RequestTraceRecorder(capacity=3, sample_every=1)
        for i in range(10):
            recorder.add(_completed_trace(i))
        assert len(recorder) == 3
        assert [t.trace_id for t in recorder.traces] == [7, 8, 9]

    def test_completed_filters_partial_and_shed(self):
        recorder = RequestTraceRecorder(sample_every=1)
        recorder.add(_completed_trace(0))
        partial = RequestTrace(1)
        partial.stamp("enqueue", 1.0)
        recorder.add(partial)
        shed = _completed_trace(2)
        shed.shed = True
        recorder.add(shed)
        assert [t.trace_id for t in recorder.completed()] == [0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError, match="capacity"):
            RequestTraceRecorder(0)
        with pytest.raises(ReproError, match="sample_every"):
            RequestTraceRecorder(sample_every=0)


class TestAddRequestFlows:
    def test_complete_trace_exports_one_flow_chain(self):
        builder = ChromeTraceBuilder()
        n = add_request_flows(
            builder,
            [_completed_trace(0, lane=1, worker="executor worker0")],
            epoch=100.0,
        )
        assert n == 1
        events = builder.to_dict()["traceEvents"]
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        # s on loadgen, t on broker, t on lane, f on the worker.
        assert [e["ph"] for e in flows] == ["s", "t", "t", "f"]
        assert flows[-1]["bp"] == "e"
        assert len({e["id"] for e in flows}) == 1
        asyncs = [e for e in events if e["ph"] in ("b", "e")]
        assert len(asyncs) == 2

    def test_laneless_trace_finishes_on_the_broker(self):
        builder = ChromeTraceBuilder()
        assert add_request_flows(
            builder, [_completed_trace(0, lane=None)], epoch=100.0
        ) == 1
        flows = [
            e for e in builder.to_dict()["traceEvents"]
            if e["ph"] in ("s", "t", "f")
        ]
        assert [e["ph"] for e in flows] == ["s", "t", "f"]

    def test_shed_trace_exports_marker_not_flow(self):
        builder = ChromeTraceBuilder()
        shed = RequestTrace(3)
        shed.stamp("enqueue", 100.0)
        shed.stamp("complete", 100.002)
        shed.shed = True
        assert add_request_flows(builder, [shed], epoch=100.0) == 0
        events = builder.to_dict()["traceEvents"]
        assert not [e for e in events if e["ph"] in ("s", "t", "f")]
        (marker,) = [e for e in events if e["ph"] == "X"]
        assert "SHED" in marker["name"]

    def test_incomplete_trace_skipped(self):
        builder = ChromeTraceBuilder()
        partial = RequestTrace(0)
        partial.stamp("enqueue", 1.0)
        assert add_request_flows(builder, [partial], epoch=0.0) == 0
        assert builder.to_dict()["traceEvents"] == []

    def test_flows_land_in_the_host_clock_domain(self):
        builder = ChromeTraceBuilder()
        add_request_flows(builder, [_completed_trace(0)], epoch=100.0)
        events = [
            e for e in builder.to_dict()["traceEvents"] if e["ph"] != "M"
        ]
        assert events and all(e["pid"] == HOST_PID for e in events)
        # Stamps are normalised against the epoch (microseconds).
        start = [e for e in events if e["ph"] == "s"]
        assert start[0]["ts"] == pytest.approx(0.0)


def _skewed_histograms(*, drop=None):
    """Five requests; request k spends 10 ms in stage k, 1 ms in each
    other stage.  Every stage median is 1 ms (sum 5 ms) while every
    e2e latency is 14 ms.  *drop* = (request, stage) skips one record."""
    metrics = MetricsRegistry()
    stages = [name for name, _, _ in STAGE_HISTOGRAMS]
    for request in range(len(stages)):
        seconds = [0.010 if k == request else 0.001 for k in range(len(stages))]
        for stage, value in zip(stages, seconds):
            if (request, stage) != drop:
                metrics.histogram(f"serving.{stage}").record(value)
        metrics.histogram("serving.e2e").record(sum(seconds))
    return metrics.snapshot()["histograms"]


class TestStagePartitionGate:
    def test_totals_gate_passes_where_the_median_gate_failed(self):
        histograms = _skewed_histograms()
        assert stage_partition_problems(histograms, n_ok=5) == []
        # The median gate this replaced: stage medians within 10% of
        # the e2e median.  Medians do not add, so it rejects this run.
        median_sum = sum(
            histograms[f"serving.{name}"]["p50"] for name, _, _ in STAGE_HISTOGRAMS
        )
        e2e_p50 = histograms["serving.e2e"]["p50"]
        assert abs(median_sum - e2e_p50) > max(0.10 * e2e_p50, 1e-3)

    def test_a_dropped_stage_record_fails(self):
        problems = stage_partition_problems(
            _skewed_histograms(drop=(0, "kernel")), n_ok=5
        )
        assert any("serving.kernel histogram holds 4" in p for p in problems)
        assert any("stage totals sum" in p for p in problems)

    def test_a_missing_histogram_fails(self):
        histograms = _skewed_histograms()
        del histograms["serving.scatter"]
        problems = stage_partition_problems(histograms, n_ok=5)
        assert any("serving.scatter histogram holds 0" in p for p in problems)

"""Span recorder and Chrome/Perfetto trace-export acceptance tests.

Covers the recorder's interval algebra against a brute-force oracle
and the exporter's contract: every emitted event carries the
mandatory Chrome Trace Event Format fields, simulated-clock and host
wall-clock events live in separate process groups with the clock
domain announced in metadata.  The exported-trace checks read the
file ``repro trace`` writes.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import (
    HOST_PID,
    SIM_PID,
    ChromeTraceBuilder,
    Span,
    SpanRecorder,
    merged_intervals,
)

MANDATORY_FIELDS = ("name", "ph", "ts", "pid", "tid")


def _thread_names(trace: dict) -> dict:
    """pid -> list of announced thread (track) names."""
    names: dict = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M" and event["name"] == "thread_name":
            names.setdefault(event["pid"], []).append(event["args"]["name"])
    return names


class TestHostSpanRecorder:
    """The recorder on host wall-clock stamps, relative to an epoch."""

    def test_normalises_against_epoch(self):
        recorder = SpanRecorder(epoch=100.0)
        recorder.record("w0", "shard0", 100.5, 101.25)
        (span,) = recorder.spans
        assert span.begin == pytest.approx(0.5)
        assert span.end == pytest.approx(1.25)
        assert span.duration == pytest.approx(0.75)
        assert recorder.tracks() == ["w0"]

    def test_span_context_manager_times_its_body(self):
        recorder = SpanRecorder(epoch=time.perf_counter())
        with recorder.span("pool", "task"):
            pass
        (span,) = recorder.spans
        assert span.track == "pool"
        assert span.end >= span.begin >= 0.0

    def test_backwards_span_rejected(self):
        recorder = SpanRecorder(epoch=0.0)
        with pytest.raises(ReproError, match="ends before it begins"):
            recorder.record("w", "x", 2.0, 1.0)


#: Intervals on a small integer grid, so draws overlap and touch often
#: and every length is an exact float.
_intervals = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12)).map(
        lambda t: (float(t[0]), float(t[0] + t[1]))
    ),
    max_size=25,
)


def _cells(intervals) -> set:
    """Brute force: the unit grid cells an interval list covers."""
    return {k for begin, end in intervals for k in range(int(begin), int(end))}


class TestIntervalAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(a=_intervals, b=_intervals)
    def test_busy_and_overlap_match_brute_force(self, a, b):
        recorder = SpanRecorder()
        for begin, end in a:
            recorder.record("a", "x", begin, end)
        for begin, end in b:
            recorder.record("b", "y", begin, end)
        assert recorder.busy_time("a") == len(_cells(a))
        assert recorder.busy_time("b") == len(_cells(b))
        both = len(_cells(a) & _cells(b))
        assert recorder.overlap_time("a", "b") == both
        assert recorder.overlap_time("b", "a") == both
        # The union is disjoint and sorted; touching intervals merged.
        union = merged_intervals(a)
        assert all(
            prev_end < begin for (_, prev_end), (begin, _) in zip(union, union[1:])
        )


class TestChromeTraceBuilder:
    def test_tracks_get_stable_tids_per_process(self):
        builder = ChromeTraceBuilder()
        builder.add_span(SIM_PID, "pe0", "job", 0.0, 1.0, category="sim")
        builder.add_span(SIM_PID, "dma", "xfer", 0.0, 1.0, category="sim")
        builder.add_span(SIM_PID, "pe0", "job2", 1.0, 2.0, category="sim")
        builder.add_span(HOST_PID, "pe0", "other-clock", 0.0, 1.0, category="host")
        spans = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["tid"] == spans[2]["tid"]  # same (pid, track)
        assert spans[0]["tid"] != spans[1]["tid"]  # different track
        # The same track name in another process is another thread.
        assert spans[3]["pid"] == HOST_PID

    def test_timestamps_are_microseconds(self):
        builder = ChromeTraceBuilder()
        builder.add_span(SIM_PID, "t", "x", 0.5, 2.0, category="sim")
        (span,) = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == pytest.approx(0.5e6)
        assert span["dur"] == pytest.approx(1.5e6)

    def test_counter_events_carry_values(self):
        builder = ChromeTraceBuilder()
        builder.add_counter(SIM_PID, "bytes", 4096.0, at_seconds=1.0)
        (counter,) = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "C"]
        assert counter["args"]["value"] == 4096.0
        assert counter["ts"] == pytest.approx(1e6)

    def test_metrics_snapshot_rides_in_other_data(self):
        metrics = MetricsRegistry()
        metrics.counter("serving.batches").add(3)
        for value in (0.001, 0.002, 0.004):
            metrics.histogram("serving.e2e").record(value)
        builder = ChromeTraceBuilder()
        builder.add_metrics(metrics, at_seconds=1.0, pid=HOST_PID)
        trace = json.loads(json.dumps(builder.to_dict()))
        snapshot = trace["otherData"]["metrics"][f"pid {HOST_PID}"]
        assert snapshot == json.loads(json.dumps(metrics.snapshot()))
        assert snapshot["histograms"]["serving.e2e"]["count"] == 3
        # Histograms are not counter tracks: the events only carry the
        # counter's 0 -> final ramp.
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert names == {"serving.batches"}


@pytest.fixture(scope="module")
def exported_sim_trace(tmp_path_factory):
    """The merged trace ``repro trace`` writes: one instrumented
    simulation run (pid 1) and one executor run (pid 2)."""
    from repro.cli import main

    path = tmp_path_factory.mktemp("trace") / "run.perfetto.json"
    assert main(["trace", "--out", str(path), "--samples", "100000"]) == 0
    return json.loads(path.read_text())


class TestExportedTraceSchema:
    def test_every_event_has_mandatory_fields(self, exported_sim_trace):
        trace = exported_sim_trace
        assert trace["traceEvents"], "trace must not be empty"
        for event in trace["traceEvents"]:
            for field in MANDATORY_FIELDS:
                assert field in event, f"event missing {field}: {event}"
            assert event["ph"] in {"X", "C", "M"}
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "C":
                assert "value" in event["args"]

    def test_sim_spans_cover_dma_pe_and_hbm_tracks(self, exported_sim_trace):
        trace = exported_sim_trace
        sim_tracks = set(_thread_names(trace).get(SIM_PID, []))
        assert "dma h2d" in sim_tracks
        assert "dma d2h" in sim_tracks
        assert any(track.startswith("pe") for track in sim_tracks)
        assert any(track.startswith("hbm ch") for track in sim_tracks)

    def test_clock_domains_are_announced(self, exported_sim_trace):
        trace = exported_sim_trace
        domains = trace["otherData"]["clock_domains"]
        assert f"pid {SIM_PID}" in domains
        assert "sim" in domains[f"pid {SIM_PID}"]
        process_names = [
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert any("sim clock" in name for name in process_names)

    def test_metric_counters_present(self, exported_sim_trace):
        trace = exported_sim_trace
        counters = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "C"
        }
        assert any(name.startswith("hbm.") for name in counters)


class TestMergedTraceHasBothClockDomains:
    def test_host_executor_spans_join_sim_spans(self, exported_sim_trace):
        trace = exported_sim_trace
        host_spans = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == HOST_PID
        ]
        assert host_spans, "executor must record worker spans"
        tracks = _thread_names(trace)
        assert any(t.startswith("pe") for t in tracks[SIM_PID])
        assert any(t.startswith("executor worker") for t in tracks[HOST_PID])
        # Sim and host events never share a process group.
        for event in trace["traceEvents"]:
            assert event["pid"] in (SIM_PID, HOST_PID)


class TestFlowEvents:
    def test_flow_phase_validated(self):
        builder = ChromeTraceBuilder()
        with pytest.raises(ReproError, match="flow phase"):
            builder.add_flow(HOST_PID, "t", "x", 0.0, flow_id=1, phase="q")

    def test_finish_step_terminates_at_the_binding_span(self):
        builder = ChromeTraceBuilder()
        builder.add_flow(HOST_PID, "a", "req0", 0.0, flow_id=1, phase="s")
        builder.add_flow(HOST_PID, "b", "req0", 1.0, flow_id=1, phase="f")
        start, finish = [
            e for e in builder.to_dict()["traceEvents"] if e["ph"] in "sf"
        ]
        assert start["id"] == finish["id"] == 1
        assert "bp" not in start
        assert finish["bp"] == "e"

    def test_async_span_emits_begin_end_pair(self):
        builder = ChromeTraceBuilder()
        builder.add_async_span(HOST_PID, "requests", "request 0", 0.0, 0.5,
                               async_id=0)
        begin, end = [
            e for e in builder.to_dict()["traceEvents"] if e["ph"] in "be"
        ]
        assert begin["ph"] == "b" and end["ph"] == "e"
        assert begin["id"] == end["id"]
        assert end["ts"] > begin["ts"]

    def test_backwards_async_span_rejected(self):
        builder = ChromeTraceBuilder()
        with pytest.raises(ReproError, match="ends before it begins"):
            builder.add_async_span(HOST_PID, "t", "x", 2.0, 1.0, async_id=0)

    def test_write_summary_counts_flows(self, tmp_path):
        builder = ChromeTraceBuilder()
        builder.add_span(HOST_PID, "a", "s", 0.0, 1.0, category="host")
        builder.add_flow(HOST_PID, "a", "req0", 0.5, flow_id=1, phase="s")
        builder.add_flow(HOST_PID, "a", "req0", 0.7, flow_id=1, phase="f")
        summary = builder.write(str(tmp_path / "t.json"))
        assert summary["n_flows"] == 2
        assert summary["n_spans"] == 1


class TestMergedTraceWithRequestFlows:
    """Satellite check: one merged trace holding simulated-clock spans
    (pid 1), host-clock spans (pid 2) and request flow arrows whose
    every step binds inside a span that actually exists."""

    def test_flows_reference_only_existing_spans(self, tmp_path):
        from repro.experiments.utilization import run_utilization
        from repro.obs.rtrace import RequestTrace, add_request_flows

        sim = run_utilization(
            "NIPS10", 1, threads_per_pe=1, samples_per_core=50_000
        )
        builder = ChromeTraceBuilder()
        builder.add_spans(sim.tracer.spans, pid=SIM_PID, category="sim")

        # Host-clock lane + worker spans, then a request flow whose
        # stamps land inside them.
        recorder = SpanRecorder(epoch=1000.0)
        recorder.record("serving lane0", "batch0", 1000.002, 1000.010)
        recorder.record("executor worker0", "batch0 rows", 1000.004, 1000.009)
        builder.add_spans(recorder.spans, pid=HOST_PID, category="host")

        trace = RequestTrace(0)
        trace.stamp("enqueue", 1000.000)
        trace.stamp("batch_seal", 1000.001)
        trace.stamp("dispatch", 1000.003)
        trace.stamp("kernel_start", 1000.005)
        trace.stamp("kernel_end", 1000.008)
        trace.stamp("complete", 1000.011)
        trace.lane = 0
        trace.worker_track = "executor worker0"
        assert add_request_flows(
            builder, [trace], epoch=recorder.epoch
        ) == 1

        path = tmp_path / "merged.json"
        summary = builder.write(str(path))
        assert summary["n_flows"] == 4
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]

        # Both clock domains present, never sharing a process group.
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert pids == {SIM_PID, HOST_PID}

        # Every flow step's timestamp lies inside an "X" span on the
        # same (pid, tid) — Perfetto silently drops dangling arrows.
        spans = [e for e in events if e["ph"] == "X"]
        for flow in (e for e in events if e["ph"] in ("s", "t", "f")):
            assert flow["pid"] == HOST_PID  # request path is host-clock
            assert any(
                s["pid"] == flow["pid"]
                and s["tid"] == flow["tid"]
                and s["ts"] <= flow["ts"] <= s["ts"] + s["dur"]
                for s in spans
            ), f"dangling flow step: {flow}"

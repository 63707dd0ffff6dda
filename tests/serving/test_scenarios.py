"""Tests for the ``repro serve`` scenario runner and selftest."""

import json

import pytest

from repro.errors import ServingError
from repro.serving.scenarios import run_serve, run_serve_selftest


class TestRunServe:
    def test_sweep_table_and_perfetto_spans(self, tmp_path):
        trace_path = tmp_path / "serve.perfetto.json"
        text, results = run_serve(
            "NIPS10",
            rates=(400.0,),
            duration_s=0.3,
            max_wait_ms=4.0,
            slo_ms=500.0,
            trace_out=str(trace_path),
        )
        assert "Serving sweep - NIPS10" in text
        assert "poisson@400" in text
        (result,) = results
        assert result.n_ok > 0
        assert result.n_rejected == 0
        assert result.mean_batch_rows >= 1.0
        # Acceptance criterion: serving batches are visible as spans in
        # the exported Perfetto trace.
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        span_names = [e["name"] for e in events if e.get("ph") == "X"]
        assert any(name.startswith("batch") for name in span_names)
        thread_names = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        assert any(name.startswith("serving lane") for name in thread_names)
        counters = {e["name"] for e in events if e.get("ph") == "C"}
        assert "serving.batches" in counters
        assert "serving.rejected" in counters

    def test_request_flows_ride_in_the_trace(self, tmp_path):
        trace_path = tmp_path / "serve.perfetto.json"
        text, results = run_serve(
            "NIPS10",
            rates=(400.0,),
            duration_s=0.3,
            max_wait_ms=4.0,
            slo_ms=500.0,
            trace_out=str(trace_path),
            trace_sample_every=1,
        )
        assert "request flows" in text
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        flows = [e for e in events if e.get("ph") in ("s", "t", "f")]
        assert flows, "sampled requests must export flow arrows"
        # Every flow id forms a complete start -> finish chain.
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], []).append(e["ph"])
        for phases in by_id.values():
            assert phases.count("s") == 1 and phases.count("f") == 1
        # Every flow step binds inside an existing span on its track.
        spans = [e for e in events if e.get("ph") == "X"]
        for flow in flows:
            assert any(
                s["pid"] == flow["pid"] and s["tid"] == flow["tid"]
                and s["ts"] <= flow["ts"] <= s["ts"] + s["dur"]
                for s in spans
            ), f"dangling flow step: {flow}"

    def test_telemetry_stream_and_live_endpoint(self, tmp_path):
        telemetry_path = tmp_path / "telemetry.json"
        text, results = run_serve(
            "NIPS10",
            rates=(400.0,),
            duration_s=0.3,
            slo_ms=500.0,
            telemetry_out=str(telemetry_path),
        )
        assert "telemetry snapshot x" in text
        assert "SLO burn" in text
        payload = json.loads(telemetry_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["metrics"]["counters"]["serving.requests"] > 0
        assert payload["metrics"]["histograms"]["serving.e2e"]["count"] > 0
        assert payload["slo"]["window_requests"] > 0
        # Port 0: the runner binds a free port and prints the URL; the
        # endpoint itself is covered by tests/obs/test_exporter.py.
        text2, _ = run_serve(
            "NIPS10", rates=(300.0,), duration_s=0.2, slo_ms=None,
            metrics_port=0,
        )
        assert "http://127.0.0.1:" in text2

    def test_shed_rate_reported_in_results(self):
        # Overload hard enough to shed: tiny queue, slow-ish engine.
        text, results = run_serve(
            "NIPS10",
            rates=(3000.0,),
            duration_s=0.3,
            max_batch_rows=32,
            max_queue_rows=32,
            slo_ms=5.0,
        )
        (result,) = results
        assert result.shed_rate == pytest.approx(
            result.n_rejected / result.n_sent
        )
        assert "shed%" in text and "burn" in text

    def test_diurnal_arrival_option(self):
        text, results = run_serve(
            "NIPS10",
            rates=(300.0,),
            duration_s=0.3,
            arrival="diurnal",
            slo_ms=None,
        )
        assert "diurnal@300" in text
        assert results[0].slo_met is None

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ServingError, match="arrival"):
            run_serve("NIPS10", rates=(100.0,), duration_s=0.2,
                      arrival="bursty")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServingError, match="duration_s"):
            run_serve("NIPS10", rates=(100.0,), duration_s=0.0)
        with pytest.raises(ServingError, match="rate"):
            run_serve("NIPS10", rates=())


class TestSelftest:
    def test_selftest_passes_at_low_load(self):
        text, code = run_serve_selftest("NIPS10")
        assert code == 0, text
        assert "serve selftest PASS" in text
        # The stage-decomposition gate ran and is reported.
        assert "stage medians sum" in text
        assert "request flows sampled" in text

    def test_selftest_writes_telemetry_and_trace(self, tmp_path):
        telemetry_path = tmp_path / "telemetry.json"
        trace_path = tmp_path / "selftest.perfetto.json"
        text, code = run_serve_selftest(
            "NIPS10",
            telemetry_out=str(telemetry_path),
            trace_out=str(trace_path),
        )
        assert code == 0, text
        payload = json.loads(telemetry_path.read_text())
        hists = payload["metrics"]["histograms"]
        for stage in ("batch_form", "queue_wait", "dispatch", "kernel",
                      "scatter", "e2e"):
            assert hists[f"serving.{stage}"]["count"] > 0
        assert payload["slo"]["slo_ms"] > 0
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert [e for e in events if e.get("ph") == "s"], \
            "selftest trace must contain request flow starts"
        tracks = {
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "loadgen" in tracks and "serving broker" in tracks

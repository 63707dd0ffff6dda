"""Tests for the ``repro serve`` scenario runner and selftest."""

import json

import pytest

from repro.cli import main
from repro.errors import ServingError
from repro.obs.trace_export import HOST_PID
from repro.serving.scenarios import run_serve, run_serve_selftest


class TestRunServe:
    @pytest.mark.parametrize(
        "rates", [(400.0,), (200.0, 400.0)], ids=["one_rate", "two_rates"]
    )
    def test_sweep_table_and_perfetto_spans(self, tmp_path, rates):
        trace_path = tmp_path / "serve.perfetto.json"
        text, results = run_serve(
            "NIPS10",
            rates=rates,
            duration_s=0.3,
            max_wait_ms=4.0,
            slo_ms=500.0,
            trace_out=str(trace_path),
        )
        assert "Serving sweep - NIPS10" in text
        assert "poisson@400" in text
        assert len(results) == len(rates)
        for result in results:
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
        # The end-of-run metrics ride in the same file, and one registry
        # adds the sweep's rate points up.
        snapshot = payload["otherData"]["metrics"][f"pid {HOST_PID}"]
        assert snapshot["counters"]["serving.batches"] > 0
        assert snapshot["counters"]["serving.requests"] == sum(
            r.n_ok + r.n_rejected for r in results
        )
        assert snapshot["histograms"]["serving.e2e"]["count"] == sum(
            r.n_ok for r in results
        )
        # The executor below the brokers counts into the same registry:
        # every served row and every dispatched batch, once.
        counters = snapshot["counters"]
        assert counters["executor.rows"] == counters["serving.rows"]
        assert counters["executor.submits"] == counters["serving.batches"]

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
        # The stage-partition gate ran; the medians are information only.
        assert "stage totals sum to the e2e total" in text
        assert "stage medians sum" in text
        assert "request flows sampled" in text

    def test_selftest_writes_telemetry_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "selftest.perfetto.json"
        assert main(["serve", "--selftest", "--trace-out", str(trace_path)]) == 0
        # The table's one row: scenario, offered, goodput, ok, ...
        n_ok = int(capsys.readouterr().out.splitlines()[2].split()[3])
        trace = json.loads(trace_path.read_text())
        hists = trace["otherData"]["metrics"][f"pid {HOST_PID}"]["histograms"]
        for stage in ("batch_form", "queue_wait", "dispatch", "kernel",
                      "scatter", "e2e"):
            assert hists[f"serving.{stage}"]["count"] == n_ok > 0
        events = trace["traceEvents"]
        assert [e for e in events if e.get("ph") == "s"], \
            "selftest trace must contain request flow starts"
        tracks = {
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "loadgen" in tracks and "serving broker" in tracks


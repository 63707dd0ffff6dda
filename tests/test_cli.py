"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_accepts_all_artifacts():
    parser = build_parser()
    for name in ("fig2", "table1", "fig4", "fig5", "fig6", "speedups", "outlook", "ablations", "formats", "sensitivity", "roofline", "plans", "report", "trace", "cache", "serve", "all"):
        args = parser.parse_args([name])
        assert args.artifact == name


def test_parser_rejects_unknown_artifact():
    parser = build_parser()
    for name in ("fig99", "bench"):
        with pytest.raises(SystemExit):
            parser.parse_args([name])


def test_fig5_command_prints_table(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 5" in out
    assert "max_p" in out


def test_outlook_command_prints_accounting(capsys):
    assert main(["outlook"]) == 0
    out = capsys.readouterr().out
    assert "NIPS80 input demand" in out


def test_fig2_command_respects_requests_flag(capsys):
    assert main(["fig2", "--requests", "4"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    assert "GiB/s" in out


def test_plans_command_prints_speedups(capsys):
    assert main(["plans", "--samples", "50000"]) == 0
    out = capsys.readouterr().out
    assert "Compiled-plan inference" in out
    assert "speedup" in out


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "this work" in out and "prior work" in out


def test_report_command_prints_utilization(capsys):
    assert main(["report", "--samples", "100000"]) == 0
    out = capsys.readouterr().out
    assert "Utilization report - NIPS10" in out
    assert "plateau" in out
    assert "DMA/compute overlap" in out


def test_report_command_json(capsys):
    import json

    assert main(["report", "--samples", "50000", "--cores", "1", "--json"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["channels"]
    assert decoded["channels"][0]["plateau_fraction"] > 0.9


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out_path = tmp_path / "run.perfetto.json"
    assert main(["trace", "--out", str(out_path), "--samples", "50000"]) == 0
    stdout = capsys.readouterr().out
    assert "perfetto" in stdout
    trace = json.loads(out_path.read_text())
    assert trace["traceEvents"]
    pids = {event["pid"] for event in trace["traceEvents"]}
    assert pids == {1, 2}  # sim clock and host wall clock groups
    for event in trace["traceEvents"]:
        for field in ("name", "ph", "ts", "pid", "tid"):
            assert field in event


def test_trace_cache_serve_are_excluded_from_all():
    from repro.cli import _COMMANDS, _NOT_IN_ALL

    assert {"trace", "cache", "serve"} <= set(_COMMANDS)
    assert _NOT_IN_ALL == frozenset({"trace", "cache", "serve"})


def test_serve_command_prints_result_table(capsys):
    assert main(["serve", "--rates", "250", "--duration", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "Serving sweep - NIPS10" in out
    assert "poisson@250" in out
    assert "p99" in out and "goodput" in out


def test_cache_command_reports_and_prunes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["cache"]) == 0
    stdout = capsys.readouterr().out
    assert "native kernel cache" in stdout
    assert "0 artifact(s)" in stdout
    assert main(["cache", "--prune", "--max-bytes", "0"]) == 0
    stdout = capsys.readouterr().out
    assert "removed 0" in stdout


def test_closed_stdout_exits_without_traceback(tmp_path):
    """A reader that closes early (``repro ... | head``) gets exit 1, no traceback."""
    # The child runs in an empty directory: point it at this session's
    # learned-SPN cache so it does not learn all five networks again.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
        REPRO_CACHE_DIR=os.path.abspath(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fig5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=env,
    )
    # Close the read end before the child has written anything: its
    # first print then meets a broken pipe.
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == 1

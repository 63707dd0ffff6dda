"""Tests for the plan-vs-walk table behind ``python -m repro plans``."""

from dataclasses import replace

from repro.cli import main
from repro.experiments.plan_speedup import format_plan_speedup, run_plan_speedup


def test_same_bits_column_on_small_batches():
    rows = run_plan_speedup(("NIPS10", "NIPS80"), n_samples=3, repeats=1)
    assert [row.n_samples for row in rows] == [3, 3]
    assert all(row.same_bits for row in rows)
    text = format_plan_speedup(rows)
    assert "same bits" in text and "NO" not in text


def test_plans_command_fails_on_a_differing_row(monkeypatch, capsys):
    rows = run_plan_speedup(("NIPS10",), n_samples=2, repeats=1)
    monkeypatch.setattr(
        "repro.experiments.run_plan_speedup",
        lambda **_: rows + (replace(rows[0], benchmark="NIPS10*", same_bits=False),),
    )
    assert main(["plans", "--samples", "1000"]) == 1
    assert "NO" in capsys.readouterr().out

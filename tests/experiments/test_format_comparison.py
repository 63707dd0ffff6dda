"""Tests for the number-format design-space study."""

import pytest

from repro.experiments.format_comparison import (
    format_format_comparison,
    format_range_coverage,
    run_format_comparison,
    run_range_coverage,
)


@pytest.fixture(scope="module")
def study():
    return run_format_comparison(benchmark="NIPS10", n_samples=400)


def test_adopted_cfp_is_acceptable(study):
    cfp = next(r for r in study if r.format_name.startswith("cfp(10,25"))
    assert cfp.acceptable
    assert cfp.max_log_error < 1e-6


def test_lns_trades_dsps_for_luts(study):
    """[11]'s headline: LNS multipliers need no DSPs."""
    cfp = next(r for r in study if r.format_name.startswith("cfp(10,25"))
    lns = next(r for r in study if r.format_name.startswith("lns"))
    assert lns.dsp < 0.2 * cfp.dsp
    assert lns.luts_logic_k > cfp.luts_logic_k


def test_narrow_exponents_underflow(study):
    narrow = next(r for r in study if r.format_name.startswith("cfp(6,12"))
    assert not narrow.acceptable
    assert narrow.underflow_fraction > 0


def test_float32_costs_most_dsps(study):
    f32 = next(r for r in study if r.format_name == "float32")
    others = [r.dsp for r in study if r.dsp is not None and r.format_name != "float32"]
    assert f32.dsp > max(others)


def test_posit_has_library_costs(study):
    posit = next(r for r in study if r.format_name.startswith("posit"))
    assert posit.dsp is not None
    assert posit.acceptable  # 32-bit posit accuracy suffices


def test_formatting(study):
    text = format_format_comparison(study, benchmark="NIPS10")
    assert "design space" in text
    assert "cfp(10,25" in text


def test_static_range_coverage_of_the_nips_networks():
    """§III's "the format covers the network" as a printed row: NIPS10's
    static root range fits the paper's CFP(10,25) and LNS, NIPS20's
    does not; float64 runs NIPS10/20 wholly linear, float32 neither."""
    rows = {row.benchmark: row for row in run_range_coverage()}
    assert rows["NIPS10"].root_lo == pytest.approx(-278.0, abs=0.1)
    assert rows["NIPS20"].root_lo == pytest.approx(-554.2, abs=0.1)
    for name in ("NIPS10", "NIPS20"):
        linear, interior = rows[name].linear_nodes["float64"]
        assert linear == interior
        assert rows[name].linear_nodes["float32"][0] == 0
    text = format_range_coverage(rows.values())
    nips10, nips20 = (
        next(line for line in text.splitlines() if line.strip().startswith(name))
        for name in ("NIPS10", "NIPS20")
    )
    assert nips10.split()[3:5] == ["fits", "fits"]
    assert nips20.split()[3:5] == ["NO", "NO"]
    assert "[-353.5, 355.6]" in text  # PAPER_CFP's range in nats

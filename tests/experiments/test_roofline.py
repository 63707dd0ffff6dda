"""Tests for the roofline analysis."""

import pytest

from repro.compiler.native_build import compiler_command
from repro.experiments.roofline import (
    format_roofline,
    host_kernel_ops,
    run_roofline,
)
from repro.spn import get_plan, nips_benchmark


@pytest.fixture(scope="module")
def points():
    return run_roofline()


def test_intensity_grows_with_benchmark_size(points):
    """Broad trend: larger SPNs pack more ops per transferred byte
    (exact monotonicity depends on learned structure density)."""
    intensities = [p.intensity for p in points]
    assert intensities[-1] > intensities[0]
    assert max(intensities) == intensities[-1]


def test_intensity_is_low_single_digits(points):
    """The paper's premise: SPN inference has low arithmetic intensity
    (~10 ops/byte, far left of a GPU's ridge point)."""
    for point in points:
        assert point.intensity < 20


def test_gpu_always_compute_bound(points):
    """The V100 ridge sits near 19 ops/B (~17 Gop/s / 900 GB/s x1000);
    every benchmark lands left of it -> the GPU never reaches its
    bandwidth, matching the paper's 'unsuitable' verdict."""
    for point in points:
        samples, memory_bound = point.bounds["Tesla V100"]
        assert not memory_bound  # compute(effective)-bound
        assert samples < 150e6


def test_fpga_bound_far_above_measured(points):
    """The FPGA's spatial datapath makes its compute roof enormous:
    the roofline bound must exceed the measured end-to-end rates by a
    wide margin (PCIe, not the roofline, is the wall)."""
    measured = {"NIPS10": 614e6, "NIPS80": 116.6e6}
    for point in points:
        if point.benchmark in measured:
            bound, _ = point.bounds["HBM FPGA (8 cores)"]
            assert bound > 2.5 * measured[point.benchmark]


def test_nips80_fpga_memory_bound(points):
    """The largest benchmark saturates its HBM channels before its
    pipelines — visible as the only 'mem' entry in the FPGA column."""
    nips80 = next(p for p in points if p.benchmark == "NIPS80")
    _, memory_bound = nips80.bounds["HBM FPGA (8 cores)"]
    assert memory_bound


def test_roofline_tracks_v100_model(points):
    """Roofline bounds should approximate the calibrated V100 model
    (same physics, independent formulation)."""
    from repro.platforms.gpu_model import TESLA_V100
    from repro.spn import nips_spn

    for point in points:
        bound, _ = point.bounds["Tesla V100"]
        model = TESLA_V100.samples_per_second(nips_spn(point.benchmark))
        assert bound == pytest.approx(model, rel=0.45)


def test_formatting(points):
    text = format_roofline(points)
    assert "Roofline" in text
    assert "(mem)" in text


def test_host_kernel_ops_on_nips10():
    """The generated kernel's per-row work, read from the plan: the
    arithmetic side of the ceiling its rows/s is judged against.  NIPS10
    runs wholly linear in float64: no ``exp``, one ``log`` at the root."""
    ops = host_kernel_ops(get_plan(nips_benchmark("NIPS10").spn))
    assert ops.table_gathers == 69  # every leaf, one parent each
    assert ops.irregular_lookups == 6  # grid-coded variables
    assert ops.closed_form_leaves == 0
    assert ops.product_terms == 76
    assert (ops.exps, ops.logs) == (0, 1)
    # 76 terms over 17 product nodes, a multiply and an add per sum child.
    assert ops.adds == (76 - 17) + 2 * 18
    assert (ops.bytes_in, ops.bytes_out) == (80, 8)


def test_host_kernel_ops_on_nips80_follow_the_cut():
    """NIPS80 keeps 7 of its 16 sums (14 children) in the log domain, and
    8 of them read a linear sum: one ``log`` per log-domain sum and per
    cut edge, and the exps of the log-domain sums alone."""
    ops = host_kernel_ops(get_plan(nips_benchmark("NIPS80").spn))
    assert (ops.exps, ops.logs) == (14, 7 + 8)
    # 584 terms over 31 product nodes; 18 linear and 14 log sum children.
    assert ops.adds == (584 - 31) + 2 * 18 + 3 * 14


def test_host_kernel_rows_are_printed(points):
    """Unmeasured points still print the counts, with '-' for rates."""
    assert all(p.host_rows_per_s is None for p in points)
    text = format_roofline(points)
    assert "Host C kernel" in text and "gathers" in text


@pytest.mark.skipif(
    compiler_command() is None, reason="no C compiler on this host"
)
def test_host_kernel_measured_rates():
    (point,) = run_roofline(["NIPS10"], host_rows=20_000)
    assert point.host_rows_per_s > 0
    assert "Gop/s" in format_roofline([point])

"""Unit tests for the span recorder on the simulated clock.

:class:`repro.obs.trace_export.SpanRecorder` is the one span recorder
for simulated and host time; these tests drive it the way the
simulated models do (absolute simulated seconds, epoch 0.0).
"""

import pytest

from repro.errors import ReproError
from repro.obs.trace_export import SpanRecorder


def test_record_validates_ordering():
    tracer = SpanRecorder()
    with pytest.raises(ReproError):
        tracer.record("t", "x", 2.0, 1.0)


def test_busy_time_merges_overlaps():
    tracer = SpanRecorder()
    tracer.record("t", "a", 0.0, 2.0)
    tracer.record("t", "b", 1.0, 3.0)  # overlapping
    tracer.record("t", "c", 5.0, 6.0)  # disjoint
    assert tracer.busy_time("t") == pytest.approx(4.0)


def test_overlap_time_between_tracks():
    tracer = SpanRecorder()
    tracer.record("a", "x", 0.0, 4.0)
    tracer.record("b", "y", 2.0, 6.0)
    assert tracer.overlap_time("a", "b") == pytest.approx(2.0)
    assert tracer.overlap_time("b", "a") == pytest.approx(2.0)


def test_tracks_in_first_appearance_order():
    tracer = SpanRecorder()
    tracer.record("beta", "x", 0, 1)
    tracer.record("alpha", "y", 1, 2)
    tracer.record("beta", "z", 2, 3)
    assert tracer.tracks() == ["beta", "alpha"]


def test_timeline_rendering():
    tracer = SpanRecorder()
    tracer.record("pe0", "j", 0.0, 0.5)
    tracer.record("dma", "t", 0.5, 1.0)
    text = tracer.timeline(width=10)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "pe0" in lines[1] and "#" in lines[1]
    # pe0 busy in the first half only.
    row = lines[1].split("|")[1]
    assert row[:5].count("#") == 5
    assert row[5:].count("#") == 0


def test_empty_timeline():
    """Regression: an empty recorder renders a clear one-line message
    instead of raising on the max() of zero spans."""
    tracer = SpanRecorder()
    assert tracer.timeline() == "(no spans recorded)"
    assert tracer.timeline(width=7, until=5.0) == "(no spans recorded)"


def test_zero_duration_span_is_rendered():
    """Regression: an instantaneous span must still paint one cell."""
    tracer = SpanRecorder()
    tracer.record("t", "tick", 0.5, 0.5)
    tracer.record("t", "pad", 0.0, 0.1)  # sets the horizon context
    row = tracer.timeline(width=10, until=1.0).splitlines()[1].split("|")[1]
    assert row[5] == "#"


def test_span_at_horizon_is_rendered():
    """Regression: a span beginning exactly at the horizon used to be
    pushed past the last column and vanish."""
    tracer = SpanRecorder()
    tracer.record("t", "edge", 1.0, 1.0)
    row = tracer.timeline(width=10, until=1.0).splitlines()[1].split("|")[1]
    assert row[9] == "#"


def test_span_past_horizon_is_skipped():
    tracer = SpanRecorder()
    tracer.record("t", "late", 2.0, 3.0)
    tracer.record("t", "in", 0.0, 0.5)
    row = tracer.timeline(width=10, until=1.0).splitlines()[1].split("|")[1]
    assert row == "#####     "


def test_sub_column_span_is_visible():
    """A span much shorter than one column still paints its cell."""
    tracer = SpanRecorder()
    tracer.record("t", "blip", 0.301, 0.302)
    row = tracer.timeline(width=10, until=1.0).splitlines()[1].split("|")[1]
    assert row.count("#") == 1
    assert row[3] == "#"


def test_runtime_tracing_integration():
    """The runtime's recorder holds PE and DMA tracks whose busy times
    are consistent with the run."""
    from repro.compiler import compile_core, compose_design
    from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
    from repro.platforms.specs import XUPVVH_HBM_PLATFORM
    from repro.spn import nips_benchmark

    core = compile_core(nips_benchmark("NIPS10").spn, "cfp")
    device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
    tracer = SpanRecorder()
    runtime = InferenceRuntime(
        device, InferenceJobConfig(threads_per_pe=2), tracer=tracer
    )
    stats = runtime.run_timing_only(500_000)
    assert set(tracer.tracks()) == {"dma h2d", "pe0", "dma d2h"}
    assert tracer.busy_time("pe0") <= stats.elapsed_seconds * 1.001
    # Two threads: transfers overlap compute.
    assert tracer.overlap_time("dma h2d", "pe0") > 0


def test_forced_burst_granular_restored_when_run_raises():
    """Regression: a recorder forces the burst-granular core model for
    the run; if the run dies mid-flight (impossible allocation), the
    cores must still be restored to fast-forwarding."""
    from repro.compiler import compile_core, compose_design
    from repro.errors import AllocationError
    from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
    from repro.host.memory_manager import DeviceMemoryManager
    from repro.platforms.specs import XUPVVH_HBM_PLATFORM
    from repro.spn import nips_benchmark

    core = compile_core(nips_benchmark("NIPS10").spn, "cfp")
    device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
    # No buffer can ever fit: the run raises inside _execute.
    device.memory_manager = DeviceMemoryManager(n_blocks=1, block_capacity=256)
    tracer = SpanRecorder()
    runtime = InferenceRuntime(
        device, InferenceJobConfig(threads_per_pe=1), tracer=tracer
    )
    assert not device.cores[0].burst_granular
    with pytest.raises(AllocationError):
        runtime.run_timing_only(10_000)
    assert not device.cores[0].burst_granular

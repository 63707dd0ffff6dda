"""Equivalence tests for steady-state fast-forwarding.

The fast path collapses a job's double-buffered burst pipeline into one
analytic timeout; these tests pin it to the burst-granular model by
asserting **bit-identical** run statistics (``struct.pack`` on the
elapsed time, exact equality everywhere else) across benchmarks, block
sizes, thread counts and both scheduling policies.  A second group
checks every fallback gate: the fast path must decline (not silently
diverge) for crossbar routing, explicit refresh, tracers and the
``burst_granular`` escape hatch.
"""

import struct

import pytest

from repro.compiler import compose_design
from repro.experiments.cache import benchmark_core
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.obs.trace_export import SpanRecorder
from repro.units import KIB, MIB


def _device(benchmark, n_cores, **kwargs):
    core = benchmark_core(benchmark, "cfp")
    design = compose_design(core, n_cores, XUPVVH_HBM_PLATFORM)
    return SimulatedDevice(design, **kwargs)


def _run(benchmark, n_cores, config, n_samples, *, burst_granular, tracer=None):
    device = _device(benchmark, n_cores, burst_granular=burst_granular)
    runtime = InferenceRuntime(device, config, tracer=tracer)
    return runtime.run_timing_only(n_samples)


def _assert_identical(fast, slow):
    assert struct.pack("<d", fast.elapsed_seconds) == struct.pack(
        "<d", slow.elapsed_seconds
    )
    assert fast.n_samples == slow.n_samples
    assert fast.n_blocks == slow.n_blocks
    assert fast.samples_per_pe == slow.samples_per_pe
    assert fast.bytes_to_device == slow.bytes_to_device
    assert fast.bytes_from_device == slow.bytes_from_device


# (benchmark, n_cores, block_bytes, threads_per_pe, scheduling).  The
# grid covers tiny blocks (one burst, no steady state), the paper's
# 1 MiB blocks, both thread counts and both schedulers across small and
# large SPNs.
EQUIVALENCE_CASES = [
    ("NIPS10", 1, 1 * MIB, 1, "static"),
    ("NIPS10", 3, 512, 2, "shared"),
    ("NIPS10", 2, 64 * KIB, 1, "shared"),
    ("NIPS10", 2, 1 * MIB, 2, "static"),
    ("NIPS30", 2, 1 * MIB, 2, "static"),
    ("NIPS30", 1, 64 * KIB, 1, "shared"),
    ("NIPS80", 1, 64 * KIB, 1, "static"),
    ("NIPS80", 2, 1 * MIB, 2, "shared"),
]


class TestFastForwardEquivalence:
    @pytest.mark.parametrize(
        "bench_name,n_cores,block_bytes,threads,scheduling", EQUIVALENCE_CASES
    )
    def test_bit_identical_statistics(
        self, bench_name, n_cores, block_bytes, threads, scheduling
    ):
        config = InferenceJobConfig(
            block_bytes=block_bytes,
            threads_per_pe=threads,
            scheduling=scheduling,
        )
        n_samples = 50_000 * n_cores
        fast = _run(bench_name, n_cores, config, n_samples, burst_granular=False)
        slow = _run(bench_name, n_cores, config, n_samples, burst_granular=True)
        _assert_identical(fast, slow)

    def test_on_device_only_bit_identical(self):
        config = InferenceJobConfig(threads_per_pe=2)
        for granular in (False, True):
            device = _device("NIPS10", 2, burst_granular=granular)
            runtime = InferenceRuntime(device, config)
            if granular:
                slow = runtime.run_on_device_only(100_000)
            else:
                fast = runtime.run_on_device_only(100_000)
        _assert_identical(fast, slow)

    def test_functional_run_results_unchanged(self):
        import numpy as np

        from repro.spn import log_likelihood
        from repro.spn.nips import nips_benchmark, nips_dataset

        bench = nips_benchmark("NIPS10")
        data = nips_dataset("NIPS10")[:4096]
        results = {}
        for granular in (False, True):
            device = _device("NIPS10", 2, burst_granular=granular)
            runtime = InferenceRuntime(device, InferenceJobConfig())
            out, stats = runtime.run(data)
            results[granular] = (out, stats)
        fast_out, fast_stats = results[False]
        slow_out, slow_stats = results[True]
        np.testing.assert_array_equal(fast_out, slow_out)
        _assert_identical(fast_stats, slow_stats)
        reference = log_likelihood(bench.spn, data)
        assert np.allclose(fast_out, reference, rtol=1e-2, atol=5e-2)


class TestFallbackGates:
    def test_burst_granular_kwarg_disables(self):
        device = _device("NIPS10", 1, burst_granular=True)
        assert not device.cores[0]._can_fast_forward()

    def test_default_device_fast_forwards(self):
        device = _device("NIPS10", 1)
        assert device.cores[0]._can_fast_forward()

    def test_crossbar_port_disables(self):
        device = _device("NIPS10", 2, crossbar=True)
        assert not device.cores[0]._can_fast_forward()

    def test_explicit_refresh_disables(self):
        device = _device("NIPS10", 1)
        device.cores[0].channel.explicit_refresh = True
        assert not device.cores[0]._can_fast_forward()

    def test_contended_channel_disables(self):
        device = _device("NIPS10", 1)
        channel = device.cores[0].channel
        grant = channel._engine.request()
        assert grant.triggered
        assert not device.cores[0]._can_fast_forward()
        channel._engine.release()
        assert device.cores[0]._can_fast_forward()

    def test_tracer_forces_granular_and_restores(self):
        device = _device("NIPS10", 2)
        tracer = SpanRecorder()
        runtime = InferenceRuntime(device, InferenceJobConfig(), tracer=tracer)
        stats = runtime.run_timing_only(100_000)
        # Spans must cover every block on both PEs...
        assert any(span.track.startswith("pe") for span in tracer.spans)
        # ...and the forced-granular flag must not leak past the run.
        assert all(not core.burst_granular for core in device.cores)
        # Traced timing still matches the fast-forwarded model exactly.
        fast = _run(
            "NIPS10", 2, InferenceJobConfig(), 100_000, burst_granular=False
        )
        _assert_identical(fast, stats)

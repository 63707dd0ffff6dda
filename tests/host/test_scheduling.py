"""Tests for the block-scheduling strategies."""

import numpy as np
import pytest

from repro.compiler import compile_core, compose_design
from repro.errors import RuntimeConfigError
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn import log_likelihood, random_spn


@pytest.fixture(scope="module")
def setup():
    spn = random_spn(6, depth=3, n_bins=8, seed=71)
    core = compile_core(spn, "cfp")
    rng = np.random.default_rng(71)
    data = rng.integers(0, 8, size=(800, 6)).astype(np.uint8)
    reference = log_likelihood(spn, data.astype(np.float64))
    return core, data, reference


def _run(core, data, scheduling, n_cores=3, block_bytes=512):
    device = SimulatedDevice(compose_design(core, n_cores, XUPVVH_HBM_PLATFORM))
    runtime = InferenceRuntime(
        device,
        InferenceJobConfig(block_bytes=block_bytes, scheduling=scheduling),
    )
    return runtime.run(data)


def test_both_schedulers_exact(setup):
    core, data, reference = setup
    for scheduling in ("static", "shared"):
        results, _ = _run(core, data, scheduling)
        np.testing.assert_allclose(results, reference)


def test_shared_covers_all_samples(setup):
    core, data, _ = setup
    _, stats = _run(core, data, "shared")
    assert sum(stats.samples_per_pe.values()) == len(data)


def test_shared_no_slower_on_uneven_tails(setup):
    """With a block count that divides unevenly over the PEs, the
    shared queue should finish at least as fast as static dealing."""
    core, data, _ = setup
    # 800 samples at 85/block -> 10 blocks over 3 PEs: 4/3/3 static.
    _, static_stats = _run(core, data, "static")
    _, shared_stats = _run(core, data, "shared")
    assert shared_stats.elapsed_seconds <= static_stats.elapsed_seconds * 1.02


def test_invalid_scheduling_rejected():
    with pytest.raises(RuntimeConfigError):
        InferenceJobConfig(scheduling="magic")


class TestSharedAllocationFailure:
    """A control thread whose buffer allocation fails while sibling
    threads hold the PE's memory must wait for the next free and
    retry — transient pressure is not an error and must not retire
    the thread (or, worse, strand unprocessed blocks)."""

    def _tight_runtime(
        self, core, capacity, *, threads=2, scheduling="shared", metrics=None
    ):
        from repro.host.memory_manager import DeviceMemoryManager

        device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
        device.memory_manager = DeviceMemoryManager(n_blocks=1, block_capacity=capacity)
        if metrics is not None:
            # The device registers its own allocators at construction;
            # publish the replacement's failure count instead.
            metrics.register_stats(
                device.memory_manager.allocator(0), "mem.block0", ("alloc_failures",)
            )
        return InferenceRuntime(
            device,
            InferenceJobConfig(
                block_bytes=512, threads_per_pe=threads, scheduling=scheduling
            ),
        )

    def test_input_alloc_failure_waits_and_retries(self, setup):
        core, data, reference = setup
        # Allocations are 4 KiB-aligned: one thread's input+result fill
        # the two slots exactly, so the second thread's input allocation
        # fails transiently; it must park until the sibling frees and
        # then process its share.
        runtime = self._tight_runtime(core, capacity=2 * 4096)
        results, stats = runtime.run(data)
        np.testing.assert_allclose(results, reference)
        assert sum(stats.samples_per_pe.values()) == len(data)

    def test_result_alloc_failure_frees_input_and_retries(self, setup):
        core, data, reference = setup
        # Three 4 KiB slots: the second thread's input fits but its
        # result buffer does not; it must free the input, park, and
        # retry both allocations after the next free.
        runtime = self._tight_runtime(core, capacity=3 * 4096)
        results, stats = runtime.run(data)
        np.testing.assert_allclose(results, reference)
        assert sum(stats.samples_per_pe.values()) == len(data)

    def test_transient_failures_recovered_not_fatal(self, setup):
        """The run completes exactly even though the metrics prove
        transient allocation failures actually happened."""
        from repro.obs.metrics import MetricsRegistry

        core, data, reference = setup
        metrics = MetricsRegistry()
        runtime = self._tight_runtime(core, capacity=2 * 4096, metrics=metrics)
        results, stats = runtime.run(data)
        np.testing.assert_allclose(results, reference)
        assert metrics.value("mem.block0.alloc_failures") > 0

    def test_static_scheduling_also_waits_out_pressure(self, setup):
        """Static dealing with two threads per PE hits the same
        transient pressure; those threads must retry too, not crash."""
        core, data, reference = setup
        runtime = self._tight_runtime(
            core, capacity=2 * 4096, scheduling="static"
        )
        results, stats = runtime.run(data)
        np.testing.assert_allclose(results, reference)
        assert sum(stats.samples_per_pe.values()) == len(data)

    def test_unprocessable_blocks_raise(self, setup):
        from repro.errors import AllocationError

        core, data, _ = setup
        # No thread can ever fit a single block's buffers: the run must
        # fail loudly instead of silently dropping samples.
        runtime = self._tight_runtime(core, capacity=256, threads=1)
        with pytest.raises(AllocationError):
            runtime.run(data)

    def test_static_alloc_failure_still_raises(self, setup):
        from repro.errors import AllocationError

        core, data, _ = setup
        runtime = self._tight_runtime(
            core, capacity=256, threads=1, scheduling="static"
        )
        with pytest.raises(AllocationError):
            runtime.run(data)

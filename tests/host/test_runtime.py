"""Integration tests for the device façade and inference runtime."""

import numpy as np
import pytest

from repro.compiler import compile_core, compose_design
from repro.errors import RuntimeConfigError
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.host.runtime import RunStatistics
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn import log_likelihood, nips_benchmark, random_spn
from repro.spn.nips import nips_dataset
from repro.units import MIB


def _device(n_cores=2, spn=None):
    if spn is None:
        spn = random_spn(8, depth=3, n_bins=16, seed=77)
    core = compile_core(spn, "cfp")
    design = compose_design(core, n_cores, XUPVVH_HBM_PLATFORM)
    return SimulatedDevice(design), spn


class TestDevice:
    def test_pe_enumeration(self):
        device, _ = _device(n_cores=3)
        assert device.n_pes == 3

    def test_pe_configuration_query(self):
        device, spn = _device()
        config = device.pe_configuration(0)
        assert config["n_variables"] == spn.n_variables
        assert config["clock_mhz"] == 225

    def test_too_many_cores_rejected(self):
        spn = random_spn(4, depth=2, seed=1)
        core = compile_core(spn, "cfp")
        design = compose_design(core, 33, XUPVVH_HBM_PLATFORM, check_fit=False)
        with pytest.raises(RuntimeConfigError):
            SimulatedDevice(design)

    def test_copy_roundtrip(self):
        device, _ = _device()
        payload = bytes(range(256))

        def proc():
            yield device.copy_to_device(0, 4096, payload)
            data = yield device.copy_from_device(0, 4096, 256)
            return data

        got = device.env.run(until_event=device.env.process(proc()))
        assert got == payload

    def test_invalid_pe_rejected(self):
        device, _ = _device()
        with pytest.raises(RuntimeConfigError):
            device.launch(7, 0, 0, 1)


class TestRuntimeFunctional:
    def test_results_match_reference_and_order(self):
        device, spn = _device(n_cores=2)
        runtime = InferenceRuntime(
            device, InferenceJobConfig(block_bytes=2048, threads_per_pe=2)
        )
        rng = np.random.default_rng(5)
        data = rng.integers(0, 16, size=(700, 8)).astype(np.uint8)
        results, stats = runtime.run(data)
        np.testing.assert_allclose(results, log_likelihood(spn, data.astype(float)))
        assert stats.n_samples == 700
        assert stats.elapsed_seconds > 0

    def test_nips_benchmark_end_to_end(self):
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")
        device = SimulatedDevice(compose_design(core, 2, XUPVVH_HBM_PLATFORM))
        runtime = InferenceRuntime(device, InferenceJobConfig(block_bytes=4096))
        data = nips_dataset("NIPS10")[:500]
        results, stats = runtime.run(data)
        np.testing.assert_allclose(
            results, log_likelihood(bench.spn, data.astype(float))
        )

    def test_work_distributed_across_pes(self):
        device, _ = _device(n_cores=2)
        runtime = InferenceRuntime(device, InferenceJobConfig(block_bytes=1024))
        rng = np.random.default_rng(6)
        data = rng.integers(0, 16, size=(1000, 8)).astype(np.uint8)
        _, stats = runtime.run(data)
        assert set(stats.samples_per_pe) == {0, 1}
        assert sum(stats.samples_per_pe.values()) == 1000

    def test_wrong_shape_rejected(self):
        device, _ = _device()
        runtime = InferenceRuntime(device)
        with pytest.raises(RuntimeConfigError):
            runtime.run(np.zeros((10, 3), dtype=np.uint8))

    def test_shape_checked_against_variables_not_encoded_bytes(self):
        """Regression: with a wide sample format (one variable encodes
        to more than one byte) the input shape must be validated
        against the PE's variable count, not its encoded byte count."""

        class WideFormatDevice:
            def pe_configuration(self, pe):
                return {"n_variables": 4, "sample_bytes": 8, "result_bytes": 8}

        # The runtime self-configures purely from the register file.
        runtime = InferenceRuntime(WideFormatDevice())
        assert runtime.n_variables == 4
        assert runtime.sample_bytes == 8

        # A (n, sample_bytes) matrix used to slip through; it must be
        # rejected with a message naming the variable count.
        with pytest.raises(RuntimeConfigError, match=r"\(n, 4\)"):
            runtime.run(np.zeros((10, 8), dtype=np.uint8))

        # A (n, n_variables) matrix passes validation and reaches
        # execution.
        calls = {}

        def fake_execute(n_samples, data=None, results=None, transfers=True):
            calls["n_samples"] = n_samples
            return RunStatistics(n_samples=n_samples)

        runtime._execute = fake_execute
        results, stats = runtime.run(np.zeros((10, 4), dtype=np.uint8))
        assert calls["n_samples"] == 10
        assert stats.n_samples == 10

    def test_memory_released_after_run(self):
        device, _ = _device()
        runtime = InferenceRuntime(device, InferenceJobConfig(block_bytes=1024))
        rng = np.random.default_rng(7)
        data = rng.integers(0, 16, size=(300, 8)).astype(np.uint8)
        runtime.run(data)
        for block in range(device.n_pes):
            assert device.memory_manager.allocator(block).bytes_allocated == 0


class TestRuntimeTiming:
    def test_dma_traffic_accounted(self):
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")
        device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
        runtime = InferenceRuntime(device)
        stats = runtime.run_timing_only(1_000_000)
        assert stats.bytes_to_device == 1_000_000 * 10
        assert stats.bytes_from_device == 1_000_000 * 8

    def test_single_core_nips10_anchor(self):
        """§V-B: one core processes 133,139,305 samples/s end to end."""
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")
        device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
        runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
        stats = runtime.run_timing_only(2_000_000)
        assert stats.samples_per_second == pytest.approx(133_139_305, rel=0.05)

    def test_two_threads_help_single_core(self):
        """§IV-B/§V-B: a second control thread overlaps transfers with
        compute and raises single-core throughput."""
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")

        def rate(threads):
            device = SimulatedDevice(compose_design(core, 1, XUPVVH_HBM_PLATFORM))
            runtime = InferenceRuntime(
                device, InferenceJobConfig(threads_per_pe=threads)
            )
            return runtime.run_timing_only(2_000_000).samples_per_second

        assert rate(2) > 1.25 * rate(1)

    def test_on_device_only_scales_linearly(self):
        """Fig. 4 left: without transfers, scaling is almost linear."""
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")

        def rate(n):
            device = SimulatedDevice(compose_design(core, n, XUPVVH_HBM_PLATFORM))
            runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
            return runtime.run_on_device_only(1_000_000 * n).samples_per_second

        one, eight = rate(1), rate(8)
        assert eight / one == pytest.approx(8.0, rel=0.05)

    def test_with_transfers_plateaus(self):
        """Fig. 4 right: with transfers, adding cores beyond ~5 stops
        helping for NIPS10 (PCIe saturated)."""
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")

        def rate(n):
            device = SimulatedDevice(compose_design(core, n, XUPVVH_HBM_PLATFORM))
            runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
            return runtime.run_timing_only(2_000_000 * n).samples_per_second

        five, eight = rate(5), rate(8)
        assert (eight - five) / five < 0.10


class TestEventBudget:
    """A block is a handful of heap events, not a chain of coroutines."""

    @staticmethod
    def _events(n_blocks, transfers):
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")
        device = SimulatedDevice(compose_design(core, 2, XUPVVH_HBM_PLATFORM))
        runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
        n_samples = n_blocks * runtime.samples_per_block
        if transfers:
            stats = runtime.run_timing_only(n_samples)
        else:
            stats = runtime.run_on_device_only(n_samples)
        assert stats.n_blocks == n_blocks
        return device.env.scheduled_events

    @pytest.mark.parametrize("transfers,budget", [(True, 4), (False, 2)])
    def test_events_per_job(self, transfers, budget):
        """Marginal cost of eight more blocks: DMA in, dispatch, the
        fast-forwarded job and DMA out with transfers; dispatch and job
        without."""
        extra = self._events(16, transfers) - self._events(8, transfers)
        assert extra <= budget * 8

    def test_functional_run_times_like_timing_only(self):
        """Functional copies read and write the backing store in the
        transfer's completion callback: no extra event, same clock."""
        spn = random_spn(8, depth=3, n_bins=16, seed=77)
        data = np.random.default_rng(3).integers(0, 16, size=(30_000, 8))
        config = InferenceJobConfig(block_bytes=64 * 1024)
        device, _ = _device(spn=spn)
        results, functional = InferenceRuntime(device, config).run(data)
        np.testing.assert_array_equal(results, log_likelihood(spn, data))
        device, _ = _device(spn=spn)
        timed = InferenceRuntime(device, config).run_timing_only(len(data))
        assert functional.elapsed_seconds == timed.elapsed_seconds
        assert functional.n_blocks == timed.n_blocks > 2

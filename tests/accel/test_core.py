"""Unit tests for the accelerator core (timed + functional)."""

import numpy as np
import pytest

from repro.accel import ChannelMemory, SPNAcceleratorCore
from repro.arith import PAPER_CFP
from repro.compiler import compile_core
from repro.errors import MemoryModelError, RuntimeConfigError
from repro.mem import HBMChannel
from repro.sim import Engine
from repro.spn import log_likelihood, random_spn
from repro.units import GIB, MIB
from repro.workloads import encode_samples


def _setup(n_vars=6, clock_hz=225e6, compute_format=None, seed=21):
    env = Engine()
    spn = random_spn(n_vars, depth=3, n_bins=16, seed=seed)
    core_spec = compile_core(spn, "cfp")
    channel = HBMChannel(env, 0)
    memory = ChannelMemory(1 << 24)
    core = SPNAcceleratorCore(
        env, 0, spn, core_spec, channel, memory,
        clock_hz=clock_hz, compute_format=compute_format,
    )
    return env, spn, core, memory


class TestChannelMemory:
    def test_roundtrip(self):
        mem = ChannelMemory(1024)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_bounds_checked(self):
        mem = ChannelMemory(64)
        with pytest.raises(MemoryModelError):
            mem.write(60, b"too long")
        with pytest.raises(MemoryModelError):
            mem.read(-1, 4)

    def test_array_roundtrip(self):
        mem = ChannelMemory(1024)
        values = np.array([-1.5, 2.25, 3.0])
        mem.write_array(0, values)
        np.testing.assert_array_equal(mem.read_array(0, np.float64, 3), values)

    def test_large_region_stays_sparse(self):
        memory = ChannelMemory(16 * GIB)
        memory.write(12 * GIB, b"deep write")
        assert memory.read(12 * GIB, 10) == b"deep write"
        assert memory.resident_bytes < 1 * MIB

    def test_untouched_space_reads_zero(self):
        memory = ChannelMemory(1 * GIB)
        assert memory.read(500 * 1024 * 1024, 16) == bytes(16)

    def test_cross_page_write(self):
        memory = ChannelMemory(1 * MIB)
        payload = bytes(range(256)) * 1024  # 256 KiB spanning pages
        memory.write(1000, payload)
        assert memory.read(1000, len(payload)) == payload


class TestFunctionalPath:
    def test_results_match_software_reference(self):
        env, spn, core, memory = _setup()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 16, size=(500, 6)).astype(np.uint8)
        memory.write(0, encode_samples(data))
        done = core.start_job(0, 1 << 20, 500)
        result = env.run(until_event=done)
        assert result.n_samples == 500
        got = memory.read_array(1 << 20, np.float64, 500)
        np.testing.assert_allclose(got, log_likelihood(spn, data.astype(float)))

    def test_compute_format_applied(self):
        env, spn, core, memory = _setup(compute_format=PAPER_CFP)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 16, size=(100, 6)).astype(np.uint8)
        memory.write(0, encode_samples(data))
        done = core.start_job(0, 1 << 20, 100)
        env.run(until_event=done)
        got = memory.read_array(1 << 20, np.float64, 100)
        reference = log_likelihood(spn, data.astype(float))
        # CFP result is close to but not identical with float64.
        assert np.max(np.abs(got - reference)) < 1e-4
        assert np.any(got != reference)

    def test_timing_only_job_skips_functional_write(self):
        env, spn, core, memory = _setup()
        before = memory.read(1 << 20, 80)
        done = core.start_job(0, 1 << 20, 10, functional=False)
        env.run(until_event=done)
        assert memory.read(1 << 20, 80) == before


class TestTimedPath:
    def test_throughput_approaches_clock_rate(self):
        """II=1: a large job processes ~1 sample/cycle."""
        env, spn, core, memory = _setup()
        done = core.start_job(0, 1 << 20, 1_000_000, functional=False)
        result = env.run(until_event=done)
        assert result.samples_per_second == pytest.approx(225e6, rel=0.05)

    def test_small_job_dominated_by_pipeline_fill(self):
        env, spn, core, memory = _setup()
        done = core.start_job(0, 1 << 20, 1, functional=False)
        result = env.run(until_event=done)
        # One sample cannot take less than fill + channel overheads.
        min_time = core.core_spec.pipeline_depth / core.clock_hz
        assert result.elapsed > min_time

    def test_clock_scales_throughput(self):
        env1, _, core1, _ = _setup(clock_hz=225e6)
        done = core1.start_job(0, 1 << 20, 500_000, functional=False)
        fast = env1.run(until_event=done).samples_per_second
        env2, _, core2, _ = _setup(clock_hz=112.5e6)
        done = core2.start_job(0, 1 << 20, 500_000, functional=False)
        slow = env2.run(until_event=done).samples_per_second
        assert fast / slow == pytest.approx(2.0, rel=0.05)

    def test_total_samples_accumulates(self):
        env, spn, core, memory = _setup()
        done = core.start_job(0, 1 << 20, 100, functional=False)
        env.run(until_event=done)
        done = core.start_job(0, 1 << 20, 50, functional=False)
        env.run(until_event=done)
        assert core.total_samples == 150


class TestJobControl:
    def test_concurrent_jobs_rejected(self):
        env, spn, core, memory = _setup()
        core.start_job(0, 1 << 20, 100, functional=False)
        with pytest.raises(RuntimeConfigError):
            core.start_job(0, 1 << 20, 100, functional=False)

    def test_zero_samples_rejected(self):
        env, spn, core, memory = _setup()
        with pytest.raises(RuntimeConfigError):
            core.start_job(0, 1 << 20, 0)

    def test_busy_flag_follows_job(self):
        env, spn, core, memory = _setup()
        done = core.start_job(0, 1 << 20, 100, functional=False)
        assert core.registers.busy
        env.run(until_event=done)
        assert not core.registers.busy

    def test_configuration_readout(self):
        env, spn, core, memory = _setup()
        config = core.read_configuration()
        assert config["n_variables"] == 6
        assert config["sample_bytes"] == 6
        assert config["result_bytes"] == 8
        assert config["clock_mhz"] == 225
        assert config["pipeline_depth"] == core.core_spec.pipeline_depth

"""Integration tests for the device façade and inference runtime."""

import math

import numpy as np
import pytest

from repro.accel.core import SPNAcceleratorCore
from repro.accel.registers import ExecutionMode
from repro.compiler import compile_core, compose_design
from repro.errors import RuntimeConfigError
from repro.experiments.cache import benchmark_core
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.host.runtime import RunStatistics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import SpanRecorder
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
    """A block is a handful of heap events, not a chain of coroutines,
    and a plain timing-only run is none at all."""

    @staticmethod
    def _events(n_blocks, transfers, metrics=None):
        bench = nips_benchmark("NIPS10")
        core = compile_core(bench.spn, "cfp")
        device = SimulatedDevice(
            compose_design(core, 2, XUPVVH_HBM_PLATFORM), metrics=metrics
        )
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
        """Event-driven run (a metrics registry keeps it off the fold):
        marginal cost of eight more blocks is DMA in, dispatch, the
        fast-forwarded job and DMA out with transfers; dispatch and job
        without."""
        extra = self._events(16, transfers, MetricsRegistry()) - self._events(
            8, transfers, MetricsRegistry()
        )
        assert extra <= budget * 8

    @pytest.mark.parametrize("transfers", [True, False])
    def test_fold_schedules_no_event(self, transfers):
        """A plain timing-only run is folded: no heap event per block."""
        assert self._events(16, transfers) - self._events(8, transfers) == 0

    def test_functional_run_times_like_timing_only(self):
        """Functional copies read and write the backing store in the
        transfer's completion callback: no extra event, same clock.  A
        functional run is event-driven; the timing-only one is folded."""
        spn = random_spn(8, depth=3, n_bins=16, seed=77)
        data = np.random.default_rng(3).integers(0, 16, size=(30_000, 8))
        config = InferenceJobConfig(block_bytes=64 * 1024)
        device, _ = _device(spn=spn)
        results, functional = InferenceRuntime(device, config).run(data)
        np.testing.assert_array_equal(results, log_likelihood(spn, data))
        assert device.env.scheduled_events > 0
        device, _ = _device(spn=spn)
        timed = InferenceRuntime(device, config).run_timing_only(len(data))
        assert device.env.scheduled_events == 0
        assert functional.elapsed_seconds == timed.elapsed_seconds
        assert functional.n_blocks == timed.n_blocks > 2


def _nips_device(name, n_cores, **kwargs):
    core = benchmark_core(name, "cfp")
    return SimulatedDevice(compose_design(core, n_cores, XUPVVH_HBM_PLATFORM), **kwargs)


def _committed(device, stats):
    """Everything a timing-only run leaves behind, floats as bits."""
    bucket = {
        key: value.hex() if isinstance(value, float) else value
        for key, value in vars(device.dma._bucket).items()
        if key != "env"
    }
    cores = [
        (
            core.total_samples,
            core._busy,
            core.registers.job_parameters(),
            core.registers.busy,
            core.channel._engine.total_grants,
            core.channel._engine.in_use,
            core.channel.bytes_read,
            core.channel.bytes_written,
            device.memory_manager.allocator(core.index)._free,
        )
        for core in device.cores
    ]
    return (
        stats.n_samples,
        stats.n_blocks,
        stats.elapsed_seconds.hex(),
        stats.samples_per_pe,
        stats.bytes_to_device,
        stats.bytes_from_device,
        device.env.now.hex(),
        device.dma.bytes_to_device,
        device.dma.bytes_from_device,
        bucket,
        cores,
    )


def _timing_run(device, config, n_samples, transfers):
    runtime = InferenceRuntime(device, config)
    if transfers:
        return runtime.run_timing_only(n_samples)
    return runtime.run_on_device_only(n_samples)


def _fold_and_des(name, n_cores, config, n_samples, transfers_order):
    """Run the panels in *transfers_order* on one plain device (folded)
    and on one with a metrics registry attached (event-driven); return
    what each left behind after every run."""
    states = []
    for metrics in (None, MetricsRegistry()):
        device = _nips_device(name, n_cores, metrics=metrics)
        runs = [
            _committed(device, _timing_run(device, config, n_samples, transfers))
            for transfers in transfers_order
        ]
        states.append((runs, device.env.scheduled_events))
    return states


class TestFold:
    """A timing-only run folded over the DMA issue order leaves exactly
    what the event-driven run leaves."""

    @pytest.mark.parametrize("name", ["NIPS10", "NIPS80"])
    @pytest.mark.parametrize("n_cores", range(1, 9))
    @pytest.mark.parametrize("block_bytes", [64 * 1024, 1 * MIB])
    @pytest.mark.parametrize("transfers_first", [True, False])
    def test_fold_commits_what_the_des_commits(
        self, name, n_cores, block_bytes, transfers_first
    ):
        config = InferenceJobConfig(block_bytes=block_bytes)
        per_block = max(1, block_bytes // nips_benchmark(name).spn.n_variables)
        # Two blocks per PE, one more, and a short tail block; the two
        # panels run back to back on one device, so the second starts
        # at a nonzero time with every job shape already recorded.
        n_samples = per_block * (2 * n_cores + 1) + per_block // 7
        (folded, fold_events), (des, _) = _fold_and_des(
            name, n_cores, config, n_samples, (transfers_first, not transfers_first)
        )
        assert fold_events == 0
        assert folded == des

    @pytest.mark.parametrize(
        "setup",
        ["metrics", "tracer", "two_threads", "shared", "pending_event", "busy_core",
         "burst_granular"],
    )
    def test_each_des_precondition_falls_back(self, setup):
        """Every configuration the fold does not model runs the DES and
        still times the run as the fold does."""
        config = InferenceJobConfig()
        kwargs = {}
        if setup == "two_threads":
            config = InferenceJobConfig(threads_per_pe=2)
        elif setup == "shared":
            config = InferenceJobConfig(scheduling="shared")
        elif setup == "metrics":
            kwargs["metrics"] = MetricsRegistry()
        elif setup == "burst_granular":
            kwargs["burst_granular"] = True
        device = _nips_device("NIPS10", 3, **kwargs)
        runtime = InferenceRuntime(
            device, config, tracer=SpanRecorder() if setup == "tracer" else None
        )
        if setup == "pending_event":
            device.env.timeout(1.0)
        elif setup == "busy_core":
            device.launch(0, 0, 0, 1000, functional=False)
        n_samples = 7 * runtime.samples_per_block + 99
        stats = runtime.run_timing_only(n_samples)
        assert device.env.scheduled_events > 10

        if setup in ("two_threads", "shared"):
            # Schedules the fold does not model: the oracle is the DES.
            oracle = _nips_device("NIPS10", 3, metrics=MetricsRegistry())
        else:
            oracle = _nips_device("NIPS10", 3)
        assert stats == _timing_run(oracle, config, n_samples, True)

    def test_config_readout_mode_still_raises(self):
        device = _nips_device("NIPS10", 2)
        device.cores[1].registers.set_mode(ExecutionMode.CONFIG_READOUT)
        with pytest.raises(RuntimeConfigError):
            InferenceRuntime(device).run_timing_only(1_000_000)

    @staticmethod
    def _spy_fold(monkeypatch):
        """Record each fold's outcome; a fold that gives up must leave
        every numeric field of the DMA engine and its bucket as it was."""
        outcomes = []
        fold = InferenceRuntime._fold

        def dma_fields(dma):
            return [
                (key, value)
                for owner in (dma, dma._bucket)
                for key, value in vars(owner).items()
                if isinstance(value, (int, float))
            ]

        def spy(self, *args):
            before = dma_fields(self.device.dma)
            outcomes.append(fold(self, *args))
            if not outcomes[-1]:
                assert dma_fields(self.device.dma) == before
            return outcomes[-1]

        monkeypatch.setattr(InferenceRuntime, "_fold", spy)
        return outcomes

    def test_tie_gives_up_and_commits_nothing(self, monkeypatch):
        """Job ends rounded up to a 1 ms grid make two PEs' jobs end at
        the same time: the fold gives up after reserving DMA time, rolls
        back every DMA field to its value before the run (the spy checks),
        and the DES leaves what it leaves with no fold tried.  The
        panel without transfers shares nothing between PEs, so its ties
        are harmless and it folds, from the state the DES left."""
        job_schedule = SPNAcceleratorCore._job_schedule

        def on_grid(self, n_samples, start=None):
            end, schedule = job_schedule(self, n_samples, start)
            return math.ceil(end * 1e3) / 1e3, schedule

        monkeypatch.setattr(SPNAcceleratorCore, "_job_schedule", on_grid)
        outcomes = self._spy_fold(monkeypatch)
        (folded, fold_events), (des, _) = _fold_and_des(
            "NIPS10", 4, InferenceJobConfig(), 4_000_000, (True, False)
        )
        assert outcomes == [False, True]
        assert fold_events > 0
        assert folded == des

    def test_fold_keeps_the_statistics_fields(self):
        """Three panels on one device: the fold leaves the DMA and core
        statistics fields the DES leaves, bit for bit.  A channel's busy
        time is one fast-forward sum per folded run, equal to rounding."""

        def fields(device):
            dma = [
                (key, value.hex() if isinstance(value, float) else value)
                for key, value in vars(device.dma).items()
                if isinstance(value, (int, float))
            ]
            cores = [
                (core.jobs, core.total_samples, core.busy_seconds.hex(),
                 core.dispatch_seconds.hex(), core.channel.requests)
                for core in device.cores
            ]
            return dma, cores, [core.channel.busy_seconds for core in device.cores]

        states = []
        for metrics in (None, MetricsRegistry()):
            device = _nips_device("NIPS10", 4, metrics=metrics)
            runtime = InferenceRuntime(device)
            runtime.run_timing_only(3_000_000)
            runtime.run_on_device_only(2_000_000)
            runtime.run_timing_only(1_500_000)
            states.append((fields(device), device.env.scheduled_events))
        ((fold_dma, fold_cores, fold_busy), fold_events), ((dma, cores, busy), _) = states
        assert fold_events == 0
        assert fold_dma == dma
        assert fold_cores == cores
        assert fold_busy == pytest.approx(busy, rel=1e-12)

    def test_job_without_schedule_gives_up(self, monkeypatch):
        """An emulator tie (no schedule) for the tail block: the fold
        gives up and that job runs burst by burst in the DES."""
        job_schedule = SPNAcceleratorCore._job_schedule

        def no_tail(self, n_samples, start=None):
            if n_samples == 1234:
                return None
            return job_schedule(self, n_samples, start)

        monkeypatch.setattr(SPNAcceleratorCore, "_job_schedule", no_tail)
        outcomes = self._spy_fold(monkeypatch)
        device = _nips_device("NIPS10", 2)
        runtime = InferenceRuntime(device)
        n_samples = 5 * runtime.samples_per_block + 1234
        folded = _committed(device, runtime.run_timing_only(n_samples))
        monkeypatch.undo()
        des_device = _nips_device("NIPS10", 2, metrics=MetricsRegistry())
        des = _committed(
            des_device, InferenceRuntime(des_device).run_timing_only(n_samples)
        )
        assert outcomes == [False]
        # The burst-granular tail job leaves the schedules' times and
        # counters: only the event count tells the two runs apart.
        assert folded == des

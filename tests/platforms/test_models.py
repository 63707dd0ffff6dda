"""Unit tests for the analytic platform models."""

import pytest

from repro.errors import ReproError
from repro.platforms import (
    AWS_F1_SYSTEM,
    STREAMING_100G,
    TESLA_V100,
    XEON_E5_2680_V3,
)
from repro.platforms.streaming_model import max_links_for_hbm
from repro.spn import nips_benchmark, nips_spn


class TestCpuModel:
    def test_throughput_decreases_with_spn_size(self):
        rates = [
            XEON_E5_2680_V3.samples_per_second(nips_spn(n))
            for n in ("NIPS10", "NIPS20", "NIPS40", "NIPS80")
        ]
        assert rates == sorted(rates, reverse=True)

    def test_superlinear_cost_growth(self):
        """The power-law exponent > 1: doubling ops more than doubles
        per-sample cost."""
        c1 = XEON_E5_2680_V3.cycles_per_sample(100)
        c2 = XEON_E5_2680_V3.cycles_per_sample(200)
        assert c2 > 2 * c1

    def test_nips10_beats_600m(self):
        """The model must put the CPU above the HBM plateau on NIPS10
        (Fig. 6's crossover)."""
        assert XEON_E5_2680_V3.samples_per_second(nips_spn("NIPS10")) > 6.1e8

    def test_invalid_ops_rejected(self):
        with pytest.raises(ReproError):
            XEON_E5_2680_V3.cycles_per_sample(0)


class TestGpuModel:
    def test_throughput_decreases_with_spn_size(self):
        rates = [
            TESLA_V100.samples_per_second(nips_spn(n))
            for n in ("NIPS10", "NIPS40", "NIPS80")
        ]
        assert rates == sorted(rates, reverse=True)

    def test_gpu_slowest_platform_everywhere(self):
        for name in ("NIPS10", "NIPS80"):
            bench = nips_benchmark(name)
            gpu = TESLA_V100.samples_per_second(bench.spn)
            cpu = XEON_E5_2680_V3.samples_per_second(bench.spn)
            f1 = AWS_F1_SYSTEM.samples_per_second(
                name, bench.input_bytes_per_sample, bench.result_bytes_per_sample
            )
            assert gpu < cpu
            assert gpu < f1


class TestF1Model:
    def test_nips80_limited_to_two_cores(self):
        assert AWS_F1_SYSTEM.n_cores("NIPS80") == 2
        assert AWS_F1_SYSTEM.n_cores("NIPS10") == 4

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ReproError):
            AWS_F1_SYSTEM.n_cores("NIPS99")

    def test_small_benchmarks_pcie_bound(self):
        """NIPS10..40 on F1 saturate the aggregate PCIe capacity."""
        rate = AWS_F1_SYSTEM.samples_per_second("NIPS10", 10, 8)
        expected = AWS_F1_SYSTEM.weighted_pcie_capacity / (10 + 0.8 * 8)
        assert rate == pytest.approx(expected)

    def test_nips80_queue_bound(self):
        """NIPS80 with two cores is bound by per-queue DMA bandwidth,
        explaining the paper's 1.5x gap on that benchmark."""
        rate = AWS_F1_SYSTEM.samples_per_second("NIPS80", 80, 8)
        expected = 2 * AWS_F1_SYSTEM.per_queue_bandwidth / 80
        assert rate == pytest.approx(expected)


class TestStreamingModel:
    def test_nips80_line_rate(self):
        """§V-D derives 140,748,580 samples/s from 99.078 Gbit/s at 88
        bytes per sample."""
        rate = STREAMING_100G.samples_per_second(88)
        assert rate == pytest.approx(140_748_580, rel=1e-4)

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ReproError):
            STREAMING_100G.samples_per_second(0)

    def test_max_links_accounting(self):
        """One 100G link's payload is 12.38 GB/s = 11.53 GiB/s; buffering
        writes and reads it back, so it needs 2 x 11.53 GiB/s, i.e. two
        12 GiB/s channels; 32 channels buffer 16 links."""
        assert max_links_for_hbm() == 16

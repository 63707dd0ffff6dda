"""Tests for Fig. 6, the §V-D speedups and the §V-C outlook."""

import pytest

from repro.errors import ReproError
from repro.experiments import (
    PAPER,
    format_fig6,
    format_outlook,
    format_speedups,
    geometric_mean,
    run_fig6,
    run_outlook,
    run_speedups,
)


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(samples_per_core=500_000)


@pytest.fixture(scope="module")
def speedups(fig6):
    return run_speedups(fig6)


class TestFig6:
    def test_cpu_wins_only_nips10(self, fig6):
        assert fig6.winner("NIPS10") == "CPU"
        for name in ("NIPS20", "NIPS30", "NIPS40", "NIPS80"):
            assert fig6.winner(name) == "HBM"

    def test_gpu_always_slowest(self, fig6):
        for name in fig6.benchmarks:
            others = (fig6.hbm[name], fig6.f1[name], fig6.cpu[name])
            assert fig6.gpu[name] < min(others)

    def test_hbm_matches_reconstructed_paper_series(self, fig6):
        for name in fig6.benchmarks:
            assert fig6.hbm[name] == pytest.approx(PAPER.fig6_hbm[name], rel=0.06)

    def test_hbm_beats_f1_everywhere(self, fig6):
        for name in fig6.benchmarks:
            assert fig6.hbm[name] > fig6.f1[name]

    def test_format_lists_winners(self, fig6):
        assert "winners:" in format_fig6(fig6)

    def test_collect_utilization_attaches_reports(self):
        result = run_fig6(
            benchmarks=("NIPS10",),
            samples_per_core=200_000,
            collect_utilization=True,
        )
        report = result.utilization["NIPS10"]
        assert report.channels
        assert report.dma.busy_fraction > 0
        text = format_fig6(result)
        assert "HBM utilization" in text
        assert "of plateau" in text


class TestSpeedups:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ReproError):
            geometric_mean([])
        with pytest.raises(ReproError):
            geometric_mean([1.0, -1.0])

    def test_vs_cpu_bounds(self, speedups):
        """Paper: max 2.46x; our model anchors that exactly.  The
        geometric mean lands below the paper's 1.6x because our learned
        NIPS30/40 structures are lighter than the originals (see
        EXPERIMENTS.md) — assert the reproduced range."""
        assert speedups.vs_cpu_max == pytest.approx(PAPER.speedup_vs_cpu_max, rel=0.05)
        assert 1.3 < speedups.vs_cpu_geomean < 1.7
        assert speedups.cpu_wins_nips10

    def test_vs_gpu_bounds(self, speedups):
        assert speedups.vs_gpu_max == pytest.approx(PAPER.speedup_vs_gpu_max, rel=0.05)
        assert speedups.vs_gpu_geomean == pytest.approx(
            PAPER.speedup_vs_gpu_geomean, rel=0.06
        )

    def test_vs_f1_bounds(self, speedups):
        assert speedups.vs_f1_max == pytest.approx(PAPER.speedup_vs_f1_max, rel=0.06)
        assert speedups.vs_f1_geomean == pytest.approx(
            PAPER.speedup_vs_f1_geomean, rel=0.05
        )

    def test_nips80_is_the_f1_outlier(self, speedups):
        """The 1.5x NIPS80 speedup comes from [8] fitting only 2 cores."""
        others = [
            v for k, v in speedups.per_benchmark_vs_f1.items() if k != "NIPS80"
        ]
        assert speedups.per_benchmark_vs_f1["NIPS80"] > max(others) * 1.1

    def test_streaming_beats_hbm_by_17_percent(self, speedups):
        """Paper: the streaming architecture delivers ~17-21% more on
        NIPS80 (140.7M vs 116.6M)."""
        assert speedups.streaming_nips80 == pytest.approx(
            PAPER.streaming_nips80_rate, rel=1e-3
        )
        assert 1.15 < speedups.streaming_advantage < 1.27

    def test_format_contains_all_metrics(self, speedups):
        text = format_speedups(speedups)
        for token in ("vs CPU max", "vs V100 geo-mean", "streaming/HBM"):
            assert token in text


class TestOutlook:
    @pytest.fixture(scope="class")
    def outlook(self):
        return run_outlook()

    def test_nips80_input_demand(self, outlook):
        assert outlook.nips80_input_gib == pytest.approx(
            PAPER.nips80_input_gib, rel=0.02
        )

    def test_128_core_demand_within_hbm(self, outlook):
        assert outlook.nips10_128core_demand_gib == pytest.approx(
            PAPER.nips10_128core_demand_gib, rel=0.02
        )
        assert outlook.hbm_headroom_ok

    def test_generations_double_projected_rates(self, outlook):
        gen3 = outlook.projected_rates["pcie3-x16"]["NIPS40"]
        gen6 = outlook.projected_rates["pcie6-x16"]["NIPS40"]
        assert gen6 / gen3 == pytest.approx(8.0, rel=0.01)

    def test_practical_gib_match_paper_quotes(self, outlook):
        for name, value in PAPER.pcie_outlook_gib.items():
            assert outlook.pcie_practical_gib[name] == pytest.approx(value, rel=0.02)

    def test_format_contains_accounting(self, outlook):
        text = format_outlook(outlook)
        assert "NIPS80 input demand" in text
        assert "pcie6-x16" in text

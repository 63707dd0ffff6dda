"""Tests for the Fig. 4 and Fig. 5 experiment harnesses."""

import pytest

from repro.experiments import PAPER, format_fig4, format_fig5, run_fig4, run_fig5


@pytest.fixture(scope="module")
def fig4():
    # Two benchmarks and fewer PE points keep the DES affordable in CI;
    # the benchmark suite runs the full sweep.
    return run_fig4(
        benchmarks=("NIPS10", "NIPS80"),
        pe_counts=(1, 2, 4, 6, 8),
        samples_per_core=600_000,
    )


class TestFig4:
    def test_without_transfers_scales_linearly(self, fig4):
        for name, series in fig4.without_transfers.items():
            per_core = [
                rate / n for rate, n in zip(series, fig4.pe_counts)
            ]
            assert max(per_core) / min(per_core) < 1.05, name

    def test_with_transfers_skewed_by_pcie(self, fig4):
        """The paper's Fig. 4 caption: including transfer time leads to
        severely skewed scaling."""
        for name in fig4.with_transfers:
            with_t = fig4.with_transfers[name][-1]
            without_t = fig4.without_transfers[name][-1]
            assert with_t < 0.5 * without_t

    def test_nips10_plateaus_by_five_pes(self, fig4):
        series = fig4.with_transfers["NIPS10"]
        # Gain from 6 to 8 PEs is marginal.
        assert (series[-1] - series[-2]) / series[-2] < 0.06

    def test_nips80_with_transfers_hits_paper_rate(self, fig4):
        assert fig4.with_transfers["NIPS80"][-1] == pytest.approx(
            PAPER.nips80_rate, rel=0.06
        )

    def test_format_has_both_panels(self, fig4):
        text = format_fig4(fig4)
        assert "w/o host transfers" in text
        assert "end-to-end" in text
        assert "utilization" not in text  # figures carry no instrumentation


@pytest.fixture(scope="module")
def fig5():
    return run_fig5()


class TestFig5:
    def test_64_cores_supported_for_all_benchmarks(self, fig5):
        """Paper: HBM could serve 64 instances for all benchmarks."""
        for name in fig5.demand_gib:
            if name == "NIPS80":
                continue  # 80-var demand exceeds max_p above 32 cores
            assert fig5.max_cores_within(name, fig5.practical_total_gib) >= 64

    def test_nips10_reaches_128_cores(self, fig5):
        """Paper: up to 128 NIPS10 instances fit the HBM bandwidth."""
        assert fig5.max_cores_within("NIPS10", fig5.practical_total_gib) == 128

    def test_single_channel_limit_near_12_gib(self, fig5):
        assert fig5.single_channel_gib == pytest.approx(12.0, rel=0.05)

    def test_limit_lines_match_paper(self, fig5):
        assert fig5.practical_total_gib == pytest.approx(384, rel=0.01)
        assert fig5.theoretical_total_gib == pytest.approx(428, rel=0.01)

    def test_demand_linear_in_cores(self, fig5):
        series = fig5.demand_gib["NIPS40"]
        assert series[-1] / series[0] == pytest.approx(128.0)

    def test_nips10_demand_matches_paper_accounting(self, fig5):
        """Paper: 128 NIPS10 cores demand 285 GiB/s."""
        idx = fig5.core_counts.index(128)
        assert fig5.demand_gib["NIPS10"][idx] == pytest.approx(285, rel=0.02)

    def test_format_mentions_limits(self, fig5):
        text = format_fig5(fig5)
        assert "max_p" in text and "max_t" in text

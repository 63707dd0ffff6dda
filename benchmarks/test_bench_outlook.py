"""Benchmark: regenerate the §V-C PCIe/HBM outlook (text-v-c) and the
§VII multi-link buffering outlook (text-vii-outlook)."""

import pytest

from repro.experiments import PAPER, format_outlook, run_outlook


@pytest.mark.repro_artifact("text-v-c")
@pytest.mark.repro_artifact("text-vii-outlook")
def test_bench_outlook(benchmark, capsys):
    result = benchmark.pedantic(run_outlook, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_outlook(result))
    assert result.nips80_input_gib == pytest.approx(PAPER.nips80_input_gib, rel=0.02)
    assert result.nips10_128core_demand_gib == pytest.approx(
        PAPER.nips10_128core_demand_gib, rel=0.02
    )
    assert result.hbm_headroom_ok
    # §VII: a full card of buffered 100G links stays under the
    # practical HBM total.
    assert result.links_per_card == 16
    assert result.multilink_buffer_gib < 384

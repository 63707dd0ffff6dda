"""Shared fixtures for the benchmark suite.

Each ``test_bench_*`` module regenerates one paper artifact (a table
or figure) and prints the same rows/series the paper reports; the
``--benchmark-only`` run doubles as the reproduction harness.  Session
caching keeps expensive DES runs from repeating across benchmarks.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "repro_artifact(name): marks which paper artifact a benchmark regenerates"
    )


@pytest.fixture
def timed_seconds(benchmark):
    """Read a wall-clock statistic (``"min"``, ``"mean"``) of *benchmark*.

    Under ``--benchmark-disable`` the benchmarked call runs once untimed,
    so there is no statistic: the calling test is skipped at this point,
    after its functional and physics asserts have run, and only its
    wall-clock floor goes unchecked.
    """

    def read(stat: str) -> float:
        if benchmark.disabled:
            pytest.skip("wall-clock floor not checked under --benchmark-disable")
        return getattr(benchmark.stats.stats, stat)

    return read


@pytest.fixture(scope="session")
def fig6_result():
    """One Fig. 6 system-simulation sweep shared by fig6 + speedups."""
    from repro.experiments import run_fig6

    return run_fig6(samples_per_core=500_000)

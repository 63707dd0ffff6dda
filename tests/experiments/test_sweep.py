"""Tests for the process-parallel sweep runner and compile caches."""

import os

import pytest

from repro.experiments import sweep
from repro.experiments.cache import benchmark_core
from repro.experiments.sweep import parallel_map, sweep_worker_count

#: The test process; forked pool workers inherit this value.
_PARENT_PID = os.getpid()


def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _square_or_die_in_worker(x):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * x


class TestWorkerCount:
    def test_clamped_to_items(self):
        assert sweep_worker_count(2, workers=16) == 2

    def test_explicit_workers_win(self):
        assert sweep_worker_count(100, workers=3) == 3

    def test_at_least_one(self):
        assert sweep_worker_count(0, workers=4) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert sweep_worker_count(100) == 2

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert sweep_worker_count(1000) == (os.cpu_count() or 1)

    def test_non_integer_env_is_a_config_error(self, monkeypatch):
        """Regression: a typo'd REPRO_SWEEP_WORKERS crashed with a bare
        ValueError; it must raise a configuration error naming the
        variable and the offending value."""
        from repro.errors import RuntimeConfigError

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "four")
        with pytest.raises(
            RuntimeConfigError, match=r"REPRO_SWEEP_WORKERS.*'four'"
        ):
            sweep_worker_count(100)


class TestParallelMap:
    def test_order_preserved_serial(self):
        assert parallel_map(_square, range(6), workers=1) == [0, 1, 4, 9, 16, 25]

    def test_order_preserved_parallel(self):
        assert parallel_map(_square, range(6), workers=2) == [0, 1, 4, 9, 16, 25]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            parallel_map(_maybe_fail, range(6), workers=1)

    def test_dead_worker_drops_the_pool_and_runs_serially(self):
        """A worker that dies breaks the shared pool: the sweep drops it
        and computes every point in this process, in order."""
        result = parallel_map(_square_or_die_in_worker, range(6), workers=2)
        assert result == [0, 1, 4, 9, 16, 25]
        assert sweep._POOL is None


class TestBenchmarkCoreCache:
    def test_memoised_identity(self):
        first = benchmark_core("NIPS10", "cfp")
        second = benchmark_core("NIPS10", "cfp")
        assert first is second

    def test_matches_direct_compile(self):
        from repro.compiler import compile_core
        from repro.spn.nips import nips_spn

        cached = benchmark_core("NIPS10", "cfp")
        direct = compile_core(nips_spn("NIPS10"), "cfp")
        assert cached.pipeline_depth == direct.pipeline_depth
        assert cached.resources == direct.resources

"""Tests for the executable CPU baselines."""

import numpy as np
import pytest

from repro.baselines import (
    CpuBaselineResult,
    naive_log_likelihood,
    run_cpu_baseline,
    run_sharded_cpu_baseline,
)
from repro.errors import ReproError
from repro.spn import log_likelihood, random_spn


@pytest.fixture(scope="module")
def setup():
    spn = random_spn(8, depth=3, n_bins=8, seed=31)
    rng = np.random.default_rng(31)
    data = rng.integers(0, 8, size=(400, 8)).astype(np.float64)
    return spn, data


def test_vectorised_matches_naive_oracle(setup):
    """The naive scalar evaluator is an independent implementation;
    agreement validates the vectorised inference path end to end."""
    spn, data = setup
    fast = log_likelihood(spn, data[:50])
    slow = naive_log_likelihood(spn, data[:50])
    np.testing.assert_allclose(fast, slow, rtol=1e-10)


def test_single_threaded_baseline_correct(setup):
    spn, data = setup
    result = run_cpu_baseline(spn, data, batch_size=64)
    np.testing.assert_allclose(result.results, log_likelihood(spn, data))
    assert result.n_samples == 400
    assert result.samples_per_second > 0


def test_batching_boundary_handling(setup):
    spn, data = setup
    # Batch size not dividing the row count exercises the tail batch.
    result = run_cpu_baseline(spn, data[:101], batch_size=20)
    np.testing.assert_allclose(result.results, log_likelihood(spn, data[:101]))


def test_backend_selection(setup):
    spn, data = setup
    via_plan = run_cpu_baseline(spn, data, backend="plan")
    via_walk = run_cpu_baseline(spn, data, backend="reference")
    np.testing.assert_allclose(via_plan.results, via_walk.results, rtol=1e-12)


def test_sharded_baseline_correct(setup):
    spn, data = setup
    result = run_sharded_cpu_baseline(spn, data, n_workers=2)
    np.testing.assert_allclose(result.results, log_likelihood(spn, data))
    assert result.n_threads in (1, 2)  # 1 if the sandbox forbids fork
    assert result.n_samples == 400


def test_sharded_baseline_reports_effective_workers(setup, monkeypatch):
    """``n_threads`` is what ran the batch, not what was asked for:
    where no pool can be spawned the executor runs in one process."""
    import repro.baselines.executor as executor_module

    def no_fork(*args, **kwargs):
        raise PermissionError("injected: no fork in this sandbox")

    spn, data = setup
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_fork)
    result = run_sharded_cpu_baseline(spn, data, n_workers=2)
    assert result.n_threads == 1
    np.testing.assert_allclose(result.results, log_likelihood(spn, data))


def test_sharded_baseline_uneven_shards(setup):
    spn, data = setup
    # More shards than workers, not dividing the row count evenly.
    result = run_sharded_cpu_baseline(spn, data[:101], n_workers=2, n_shards=7)
    np.testing.assert_allclose(result.results, log_likelihood(spn, data[:101]))


def test_sharded_baseline_reports_setup_separately(setup):
    """Pool spawn + plan compilation must be billed to setup_seconds,
    not to the timed inference region."""
    spn, data = setup
    result = run_sharded_cpu_baseline(spn, data, n_workers=2)
    assert result.setup_seconds >= 0.0
    assert result.elapsed_seconds >= 0.0
    # The non-pooled runners have no setup cost by definition.
    assert run_cpu_baseline(spn, data).setup_seconds == 0.0


def test_sharded_baseline_float32(setup):
    spn, data = setup
    reference = log_likelihood(spn, data)
    result = run_sharded_cpu_baseline(spn, data, n_workers=2, dtype=np.float32)
    np.testing.assert_allclose(result.results, reference, atol=1e-4)


def test_samples_per_second_finite_on_subresolution_timer():
    """A run faster than the clock resolution must report a huge but
    finite rate, never inf."""
    result = CpuBaselineResult(
        results=np.zeros(10), n_samples=10, elapsed_seconds=0.0, n_threads=1
    )
    assert np.isfinite(result.samples_per_second)
    assert result.samples_per_second > 0


def test_non_numeric_input_rejected(setup):
    spn, _ = setup
    with pytest.raises(ReproError, match="numeric"):
        run_cpu_baseline(spn, np.array([["a"] * 8, ["b"] * 8]))


def test_invalid_inputs_rejected(setup):
    spn, data = setup
    with pytest.raises(ReproError):
        run_cpu_baseline(spn, data, batch_size=0)
    with pytest.raises(ReproError):
        run_cpu_baseline(spn, np.zeros((0, 8)))
    with pytest.raises(ReproError):
        run_cpu_baseline(spn, data, backend="simd")
    with pytest.raises(ReproError):
        run_sharded_cpu_baseline(spn, data, n_workers=0)
    with pytest.raises(ReproError):
        run_sharded_cpu_baseline(spn, data, n_workers=1, n_shards=0)

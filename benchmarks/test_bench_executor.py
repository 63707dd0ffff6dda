"""Steady-state floor for the zero-copy executor.

On a 1M-row NIPS10 batch the persistent
:class:`~repro.baselines.executor.ParallelPlanExecutor` (prewarmed
pool, shared-memory batch movement, float32 storage) must sustain an
absolute rate even on a single-CPU runner.  The A/B against the
historical pickle-based runner is recorded in EXPERIMENTS.md; that
runner is gone.
"""

import time

import numpy as np
import pytest

from repro.baselines import ParallelPlanExecutor
from repro.experiments import host_cpu_batch
from repro.spn import nips_benchmark

N_ROWS = 1_000_000
N_WORKERS = 4


@pytest.fixture(scope="module")
def nips10_batch():
    """The NIPS10 SPN and a 1M-row corpus-distributed batch."""
    bench = nips_benchmark("NIPS10")
    return bench.spn, host_cpu_batch("NIPS10", N_ROWS)


@pytest.mark.repro_artifact("cpu-baseline-executor")
def test_bench_executor_steady_state_rate(benchmark, nips10_batch):
    """Absolute steady-state floor: the warm executor sustains at
    least 300k NIPS10 samples/s even on a single-CPU runner."""
    spn, data = nips10_batch
    data32 = np.ascontiguousarray(data, dtype=np.float32)
    with ParallelPlanExecutor(
        spn, n_workers=N_WORKERS, dtype=np.float32
    ) as executor:
        start = time.perf_counter()
        executor.submit(data32[:100_000])  # warm the shared buffers
        warmup = time.perf_counter() - start
        result = benchmark.pedantic(
            executor.submit, args=(data32,), rounds=2, iterations=1
        )
    assert np.all(np.isfinite(result)) and warmup >= 0.0
    samples_per_second = N_ROWS / benchmark.stats.stats.min
    assert samples_per_second > 3e5

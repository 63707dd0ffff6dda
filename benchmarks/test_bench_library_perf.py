"""Library performance micro-benchmarks (pytest-benchmark, multi-round).

Unlike the ``test_bench_fig*`` artifact regenerators, these measure
the *library's own* hot paths so performance regressions surface:
vectorised inference, format quantisation, the DES event loop, and the
full simulated end-to-end path.
"""

import numpy as np
import pytest

from repro import PAPER_CFP, nips_benchmark
from repro.compiler import compile_core, compose_design
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.sim import Engine
from repro.spn import log_likelihood
from repro.spn.inference import reference_node_log_values
from repro.spn.plan import get_plan
from repro.spn.plan_eval import plan_log_likelihood


@pytest.fixture(scope="module")
def nips80_setup():
    bench = nips_benchmark("NIPS80")
    rng = np.random.default_rng(0)
    data = rng.integers(0, 30, size=(20_000, 80)).astype(np.float64)
    return bench.spn, data


def test_bench_vectorised_inference_nips80(benchmark, timed_seconds, nips80_setup):
    """Batch log-likelihood on the largest benchmark SPN."""
    spn, data = nips80_setup
    result = benchmark(log_likelihood, spn, data)
    assert np.all(np.isfinite(result))
    samples_per_second = len(data) / timed_seconds("mean")
    # Regression floor: log_likelihood now routes through the compiled
    # plan backend, so the bar is 10x the old graph-walk floor.
    assert samples_per_second > 1e5


def test_bench_plan_vs_graph_walk_nips80(benchmark, timed_seconds, nips80_setup):
    """Compiled-plan speedup over the per-node reference walk.

    Locks in the tentpole win: the plan evaluator must stay >= 5x
    faster than the reference graph walk on the NIPS80 20k batch.
    """
    import time

    spn, data = nips80_setup
    plan = get_plan(spn)
    root = spn.root.id

    walk_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        walk_result = reference_node_log_values(spn, data)[root]
        walk_seconds = min(walk_seconds, time.perf_counter() - start)

    plan_result = benchmark(plan_log_likelihood, plan, data)
    np.testing.assert_allclose(plan_result, walk_result, rtol=1e-10)
    speedup = walk_seconds / timed_seconds("min")
    assert speedup >= 5.0, f"plan speedup regressed to {speedup:.2f}x"


def test_bench_cfp_quantisation(benchmark, timed_seconds):
    """CFP quantisation throughput (values/s)."""
    rng = np.random.default_rng(1)
    values = rng.uniform(1e-30, 1.0, size=1_000_000)
    out = benchmark(PAPER_CFP.quantize, values)
    assert out.shape == values.shape
    values_per_second = len(values) / timed_seconds("mean")
    assert values_per_second > 1e6


def test_bench_des_event_rate(benchmark, timed_seconds):
    """Raw DES throughput: timeout events processed per second."""

    def run():
        eng = Engine()

        def proc(env):
            for _ in range(20_000):
                yield env.timeout(1.0)

        eng.run(until_event=eng.process(proc(eng)))
        return eng

    eng = benchmark(run)
    assert eng.now == 20_000.0
    events_per_second = 20_000 / timed_seconds("mean")
    assert events_per_second > 1e4


def test_bench_simulated_end_to_end(benchmark):
    """Wall-clock cost of simulating 1 M samples end to end."""
    core = compile_core(nips_benchmark("NIPS10").spn, "cfp")

    def run():
        device = SimulatedDevice(compose_design(core, 4, XUPVVH_HBM_PLATFORM))
        runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
        return runtime.run_timing_only(1_000_000)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.samples_per_second > 1e8

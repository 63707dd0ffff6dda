"""Simulator-throughput floors for the timing-only runtime.

These benchmarks measure *simulated samples per wall-clock second* —
how fast the simulation itself runs, not the modelled device
throughput.  A plain timing-only run is a fold over the DMA engine's
issue order: per block, two DMA reservations, two heap operations and
one replayed job schedule, with no event-loop event at all.  At 100 M
samples on 8 cores a run is 954 blocks (7,630 for NIPS80), so the
blocks, not device construction, set the rate.  Best of 3 on a 2-vCPU
Intel Xeon shared with other load, Python 3.11, ten runs each: the
fold read 7.5e9-1.7e10 sim-samples/s for NIPS10 and 1.15e9-2.4e9 for
NIPS80, and the same plain run forced onto the event-driven path read
2.0e9-3.5e9 and 2.8e8-5.1e8.  The floors sit above every forced
event-driven run and about 3x under the median fold; under load the
slowest fold came within 1.7x of them.  ``tests/host/test_runtime.py
::TestEventBudget`` also catches a plain run that is no longer folded.
The CI perf-smoke job runs this file.
"""

import pytest

from repro.compiler import compose_design
from repro.experiments.cache import benchmark_core
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM

#: Simulated samples per run, long enough for the floors to separate
#: the fold from the event-driven run (see the module docstring).
N_SAMPLES = 100_000_000


def _simulate(core, n_cores, n_samples):
    device = SimulatedDevice(compose_design(core, n_cores, XUPVVH_HBM_PLATFORM))
    runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
    return runtime.run_timing_only(n_samples)


@pytest.mark.parametrize(
    "bench_name,floor,modelled_rate",
    [
        # Above the event-driven run, ~3x under the median fold, see
        # the module docstring.
        ("NIPS10", 4.5e9, 6.13e8),
        ("NIPS80", 6.5e8, 1.166e8),
    ],
)
def test_bench_sim_throughput(benchmark, timed_seconds, bench_name, floor, modelled_rate):
    """Wall-clock floor for simulating 100 M samples on 8 cores."""
    core = benchmark_core(bench_name, "cfp")
    stats = benchmark.pedantic(_simulate, (core, 8, N_SAMPLES), rounds=3, iterations=1)
    # The fast path must not change the modelled physics.
    assert stats.samples_per_second == pytest.approx(modelled_rate, rel=0.02)
    sim_samples_per_wall_second = N_SAMPLES / timed_seconds("min")
    assert sim_samples_per_wall_second > floor, (
        f"{bench_name}: simulator throughput regressed to "
        f"{sim_samples_per_wall_second:.3e} sim-samples/s (floor {floor:.1e})"
    )

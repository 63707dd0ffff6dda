"""Simulator-throughput floors for the fast-forwarding DES.

These benchmarks measure *simulated samples per wall-clock second* —
how fast the discrete-event simulation itself runs, not the modelled
device throughput.  Steady-state fast-forwarding turns each uncontended
job into one event at a replayed end time, so the floors below sit
well above what the burst-granular model can reach (1.4e8
sim-samples/s for NIPS10 and 2.0e7 for NIPS80, best of 3 on a 2-vCPU
Intel Xeon, Python 3.11); a regression that silently drops jobs back
to the granular path fails them immediately.  The CI perf-smoke job
runs this file.
"""

import pytest

from repro.compiler import compose_design
from repro.experiments.cache import benchmark_core
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM

#: Simulated samples per run; large enough that per-run setup
#: (device construction, block dispatch) does not dominate.
N_SAMPLES = 10_000_000


def _simulate(core, n_cores, n_samples):
    device = SimulatedDevice(compose_design(core, n_cores, XUPVVH_HBM_PLATFORM))
    runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
    return runtime.run_timing_only(n_samples)


@pytest.mark.parametrize(
    "bench_name,floor,modelled_rate",
    [
        # Floors leave ~3x headroom under the measured 8.9e8 (NIPS10) /
        # 1.4e8 (NIPS80) on the same host for slower CI hosts, yet stay
        # above the burst-granular model's ceiling.
        ("NIPS10", 3.0e8, 6.06e8),
        ("NIPS80", 4.0e7, 1.16e8),
    ],
)
def test_bench_sim_throughput(benchmark, timed_seconds, bench_name, floor, modelled_rate):
    """Wall-clock floor for simulating 10 M samples on 8 cores."""
    core = benchmark_core(bench_name, "cfp")
    stats = benchmark.pedantic(_simulate, (core, 8, N_SAMPLES), rounds=3, iterations=1)
    # The fast path must not change the modelled physics.
    assert stats.samples_per_second == pytest.approx(modelled_rate, rel=0.02)
    sim_samples_per_wall_second = N_SAMPLES / timed_seconds("min")
    assert sim_samples_per_wall_second > floor, (
        f"{bench_name}: simulator throughput regressed to "
        f"{sim_samples_per_wall_second:.3e} sim-samples/s (floor {floor:.1e})"
    )

"""Simulator-throughput floors for the timing-only runtime.

These benchmarks measure *simulated samples per wall-clock second* —
how fast the simulation itself runs, not the modelled device
throughput.  A plain timing-only run is a fold over the DMA engine's
issue order: per block, two DMA reservations, two heap operations and
one replayed job schedule, with no event-loop event at all.  At 10 M
samples on 8 cores a run is ~95 blocks (763 for NIPS80), so device
construction and the first emulated job of each shape weigh as much as
the blocks.  Best of 3 on a 2-vCPU Intel Xeon, Python 3.11, four runs:
1.85-2.30 ms for NIPS10 (4.3e9-5.4e9 sim-samples/s) and 4.75-8.09 ms
for NIPS80 (1.2e9-2.1e9).  The floors leave 3x headroom under the
slowest of those for slower CI hosts, and stay far above the
burst-granular model (1.5e8-2.2e8 and 2.7e7-3.1e7).  They do not
separate the fold from the event-driven run, which reads 2.2e9-2.4e9
and 4.1e8 on the same host: ``tests/host/test_runtime.py::
TestEventBudget`` is what catches a plain run that is no longer folded.
The CI perf-smoke job runs this file.
"""

import pytest

from repro.compiler import compose_design
from repro.experiments.cache import benchmark_core
from repro.host import InferenceJobConfig, InferenceRuntime, SimulatedDevice
from repro.platforms.specs import XUPVVH_HBM_PLATFORM

#: Simulated samples per run (the floors count set-up as well as the
#: blocks, see the module docstring).
N_SAMPLES = 10_000_000


def _simulate(core, n_cores, n_samples):
    device = SimulatedDevice(compose_design(core, n_cores, XUPVVH_HBM_PLATFORM))
    runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
    return runtime.run_timing_only(n_samples)


@pytest.mark.parametrize(
    "bench_name,floor,modelled_rate",
    [
        # ~3x headroom under the measured 4.3e9 (NIPS10) / 1.2e9
        # (NIPS80), see the module docstring.
        ("NIPS10", 1.4e9, 6.06e8),
        ("NIPS80", 4.0e8, 1.16e8),
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

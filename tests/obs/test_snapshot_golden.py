"""Golden metrics snapshots of small instrumented simulated runs.

Each case runs a device with a registry attached and compares the
registry's full :meth:`~repro.obs.metrics.MetricsRegistry.to_json`
text with a file under ``tests/obs/golden/``.  JSON floats round-trip
exactly, so text identity pins every counter, gauge, time stat and
its summation order, not only the simulated timings
``TestZeroPerturbation`` checks.

Regenerate a file only for a change that is meant to move a metric::

    PYTHONPATH=src python -m tests.obs.test_snapshot_golden
"""

from pathlib import Path

import pytest

from repro.compiler.design import compose_design
from repro.experiments.cache import benchmark_core
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import SpanRecorder
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.units import KIB

GOLDEN = Path(__file__).parent / "golden"

#: name -> (network, cores, samples, job config, traced, crossbar)
CASES = {
    "nips10x2_fast_forward": ("NIPS10", 2, 600_000, {}, False, False),
    "nips10x2_two_threads": ("NIPS10", 2, 600_000, {"threads_per_pe": 2}, False, False),
    "nips80x3_shared": ("NIPS80", 3, 100_000, {"scheduling": "shared"}, False, False),
    "nips10x2_traced_burst": (
        "NIPS10", 2, 40_000, {"block_bytes": 64 * KIB}, True, False
    ),
    "nips10x2_traced_crossbar": (
        "NIPS10", 2, 40_000, {"block_bytes": 64 * KIB}, True, True
    ),
}


def snapshot_json(case: str) -> str:
    """The registry's JSON after one timing-only run of *case*."""
    network, n_cores, n_samples, config, traced, crossbar = CASES[case]
    design = compose_design(benchmark_core(network, "cfp"), n_cores, XUPVVH_HBM_PLATFORM)
    metrics = MetricsRegistry()
    device = SimulatedDevice(design, crossbar=crossbar, metrics=metrics)
    tracer = SpanRecorder() if traced else None
    if tracer is not None:
        device.attach_tracer(tracer)
    runtime = InferenceRuntime(device, InferenceJobConfig(**config), tracer=tracer)
    runtime.run_timing_only(n_samples)
    return metrics.to_json() + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_matches_golden(case):
    assert snapshot_json(case) == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.json").write_text(snapshot_json(name))

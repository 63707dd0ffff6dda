"""Fig. 6 — end-to-end peak performance across platforms.

For every benchmark, the best configuration per platform:

* **HBM (this work)** — full system simulation (device + runtime),
  best of the deployable core counts with transfers included;
* **AWS F1 [8]** — the calibrated prior-work system model;
* **CPU (Xeon E5-2680 v3)** — the calibrated analytic model, or
  (``cpu_backend="measured"``) a real run of the zero-copy
  :class:`~repro.baselines.executor.ParallelPlanExecutor` on the
  local machine's cores (see ``docs/cpu_baselines.md``);
* **GPU (Tesla V100)** — the calibrated analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.design import compose_design
from repro.errors import ReproError, ResourceFitError
from repro.experiments.cache import benchmark_core
from repro.experiments.reference import PAPER
from repro.experiments.reporting import format_series
from repro.experiments.sweep import parallel_map
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.platforms.cpu_model import XEON_E5_2680_V3
from repro.platforms.f1_model import AWS_F1_SYSTEM
from repro.platforms.gpu_model import TESLA_V100
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.spn.nips import NIPS_BENCHMARKS, nips_benchmark

__all__ = ["Fig6Result", "run_fig6", "format_fig6", "hbm_core_count"]

#: Samples per core for the HBM simulation runs (paper scale is 100 M
#: per run; 10 M is affordable now that jobs fast-forward).
SAMPLES_PER_CORE = 10_000_000


def hbm_core_count(benchmark: str) -> int:
    """Deployable core count on the VU37P for *benchmark*.

    The paper deploys up to 8 cores (NIPS80 included); smaller
    benchmarks could fit more but gain nothing past the PCIe plateau,
    so 8 is the evaluated maximum throughout.
    """
    core = benchmark_core(benchmark, "cfp")
    best = 1
    for n in range(1, 9):
        try:
            compose_design(core, n, XUPVVH_HBM_PLATFORM)
            best = n
        except ResourceFitError:
            break
    return best


@dataclass(frozen=True)
class Fig6Result:
    """Best-case samples/s per platform per benchmark."""

    benchmarks: Tuple[str, ...]
    hbm: Dict[str, float]
    f1: Dict[str, float]
    cpu: Dict[str, float]
    gpu: Dict[str, float]

    def winner(self, benchmark: str) -> str:
        """Fastest platform for *benchmark*."""
        candidates = {
            "HBM": self.hbm[benchmark],
            "F1": self.f1[benchmark],
            "CPU": self.cpu[benchmark],
            "V100": self.gpu[benchmark],
        }
        return max(candidates, key=candidates.get)


def _hbm_point(point: Tuple[str, int]) -> float:
    name, samples_per_core = point
    n_cores = hbm_core_count(name)
    design = compose_design(
        benchmark_core(name, "cfp"), n_cores, XUPVVH_HBM_PLATFORM
    )
    device = SimulatedDevice(design)
    runtime = InferenceRuntime(device, InferenceJobConfig(threads_per_pe=1))
    stats = runtime.run_timing_only(samples_per_core * n_cores)
    return stats.samples_per_second


def _measured_cpu_rate(name: str, n_samples: int) -> float:
    """Steady-state samples/s of the zero-copy executor on *name*."""
    from repro.baselines.cpu import run_sharded_cpu_baseline
    from repro.experiments.utilization import host_cpu_batch

    data = host_cpu_batch(name, n_samples)
    result = run_sharded_cpu_baseline(nips_benchmark(name).spn, data)
    return result.samples_per_second


def run_fig6(
    benchmarks: Sequence[str] = NIPS_BENCHMARKS,
    *,
    samples_per_core: int = SAMPLES_PER_CORE,
    workers: Optional[int] = None,
    cpu_backend: str = "model",
    cpu_samples: int = 200_000,
) -> Fig6Result:
    """Measure/model all four platforms per benchmark.

    The HBM system simulations (the expensive points) fan across the
    process-parallel sweep runner; the analytic platform models are
    evaluated inline.

    ``cpu_backend`` selects the CPU column: ``"model"`` (default) is
    the calibrated Xeon E5-2680 v3 analytic model at the paper's
    hardware scale, ``"measured"`` runs *cpu_samples* rows through the
    zero-copy :class:`~repro.baselines.executor.ParallelPlanExecutor`
    on the local machine — a real measurement, but of *this* machine's
    cores, not the paper's.
    """
    if cpu_backend not in ("model", "measured"):
        raise ReproError(
            f"cpu_backend must be 'model' or 'measured', got {cpu_backend!r}"
        )
    for name in benchmarks:
        benchmark_core(name, "cfp")
    rates = parallel_map(
        _hbm_point,
        [(name, samples_per_core) for name in benchmarks],
        workers=workers,
    )
    hbm: Dict[str, float] = dict(zip(benchmarks, rates))
    f1: Dict[str, float] = {}
    cpu: Dict[str, float] = {}
    gpu: Dict[str, float] = {}
    for name in benchmarks:
        bench = nips_benchmark(name)
        f1[name] = AWS_F1_SYSTEM.samples_per_second(
            name, bench.input_bytes_per_sample, bench.result_bytes_per_sample
        )
        if cpu_backend == "measured":
            cpu[name] = _measured_cpu_rate(name, cpu_samples)
        else:
            cpu[name] = XEON_E5_2680_V3.samples_per_second(bench.spn)
        gpu[name] = TESLA_V100.samples_per_second(bench.spn)
    return Fig6Result(
        benchmarks=tuple(benchmarks),
        hbm=hbm,
        f1=f1,
        cpu=cpu,
        gpu=gpu,
    )


def format_fig6(result: Fig6Result) -> str:
    """Render the Fig. 6 bars (Msamples/s) with paper references."""
    names = list(result.benchmarks)
    table = format_series(
        "benchmark",
        names,
        {
            "HBM (this)": [result.hbm[n] / 1e6 for n in names],
            "HBM paper*": [PAPER.fig6_hbm[n] / 1e6 for n in names],
            "AWS F1": [result.f1[n] / 1e6 for n in names],
            "CPU": [result.cpu[n] / 1e6 for n in names],
            "V100": [result.gpu[n] / 1e6 for n in names],
        },
        title="Fig. 6 - peak end-to-end performance, Msamples/s "
        "(*reconstructed from quoted anchors)",
    )
    winners = ", ".join(f"{n}: {result.winner(n)}" for n in names)
    return table + "\nwinners: " + winners

"""Ablation studies of the design choices DESIGN.md calls out.

Four ablations, each isolating one decision of the paper's system:

* **block size** — the user-specified sub-job block size (§IV-B).
  Too small and per-job dispatch dominates; the paper's 1 MiB choice
  sits at the knee (and matches the HBM saturation size of Fig. 2).
* **control threads per PE** — 1 vs 2 vs 4 (§IV-B: two saturate DMA).
* **crossbar** — one channel's closed-form rate through the optional
  HBM crossbar against the direct attachment (§II-B: paper disables
  it).
* **burst size** — the Load/Store Unit burst against the per-request
  channel overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.design import compose_design
from repro.experiments.cache import benchmark_core
from repro.experiments.reporting import format_table
from repro.experiments.sweep import parallel_map
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime
from repro.mem.hbm import channel_throughput
from repro.platforms.specs import XUPVVH_HBM_PLATFORM
from repro.units import GIB, KIB, MIB

__all__ = [
    "BlockSizeAblation",
    "run_block_size_ablation",
    "run_thread_ablation",
    "run_crossbar_ablation",
    "format_ablation",
]


@dataclass(frozen=True)
class BlockSizeAblation:
    """Throughput per block size for one configuration."""

    benchmark: str
    n_cores: int
    block_bytes: Tuple[int, ...]
    samples_per_second: Tuple[float, ...]

    @property
    def best_block(self) -> int:
        """Block size with the highest throughput."""
        best = max(range(len(self.block_bytes)), key=lambda i: self.samples_per_second[i])
        return self.block_bytes[best]


def _rate(benchmark: str, n_cores: int, config: InferenceJobConfig, n_samples: int) -> float:
    core = benchmark_core(benchmark, "cfp")
    design = compose_design(core, n_cores, XUPVVH_HBM_PLATFORM)
    device = SimulatedDevice(design)
    runtime = InferenceRuntime(device, config)
    return runtime.run_timing_only(n_samples).samples_per_second


def _block_point(point: Tuple[str, int, int, int]) -> float:
    benchmark, n_cores, block_bytes, n_samples = point
    return _rate(
        benchmark, n_cores, InferenceJobConfig(block_bytes=block_bytes), n_samples
    )


def _thread_point(point: Tuple[str, int, int, int]) -> float:
    benchmark, n_cores, threads, samples_per_core = point
    return _rate(
        benchmark,
        n_cores,
        InferenceJobConfig(threads_per_pe=threads),
        samples_per_core * n_cores,
    )


def run_block_size_ablation(
    benchmark: str = "NIPS10",
    n_cores: int = 2,
    block_sizes: Sequence[int] = (64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB),
    *,
    n_samples: int = 2_000_000,
    workers: Optional[int] = None,
) -> BlockSizeAblation:
    """Sweep the sub-job block size (the paper runs 1 MiB blocks)."""
    benchmark_core(benchmark, "cfp")
    rates = parallel_map(
        _block_point,
        [(benchmark, n_cores, size, n_samples) for size in block_sizes],
        workers=workers,
    )
    return BlockSizeAblation(
        benchmark=benchmark,
        n_cores=n_cores,
        block_bytes=tuple(block_sizes),
        samples_per_second=tuple(rates),
    )


def run_thread_ablation(
    benchmark: str = "NIPS10",
    core_counts: Sequence[int] = (1, 2, 4, 6),
    thread_counts: Sequence[int] = (1, 2, 4),
    *,
    samples_per_core: int = 1_000_000,
    workers: Optional[int] = None,
) -> Dict[int, Dict[int, float]]:
    """Threads-per-PE sweep: cores -> threads -> samples/s."""
    benchmark_core(benchmark, "cfp")
    points = [
        (benchmark, cores, threads, samples_per_core)
        for cores in core_counts
        for threads in thread_counts
    ]
    rates = iter(parallel_map(_thread_point, points, workers=workers))
    return {
        cores: {threads: next(rates) for threads in thread_counts}
        for cores in core_counts
    }


def run_crossbar_ablation(
    request_sizes: Sequence[int] = (16 * KIB, 256 * KIB, 1 * MIB),
) -> Dict[int, Tuple[float, float]]:
    """request size -> (direct GiB/s, via-crossbar GiB/s)."""
    return {
        size: (
            channel_throughput(size) / GIB,
            channel_throughput(size, crossbar=True) / GIB,
        )
        for size in request_sizes
    }


def format_ablation(
    block: BlockSizeAblation,
    threads: Dict[int, Dict[int, float]],
    crossbar: Dict[int, Tuple[float, float]],
) -> str:
    """Render all three ablations as text tables."""
    block_table = format_table(
        ["block", "Msamples/s"],
        [
            [f"{size // KIB} KiB", rate / 1e6]
            for size, rate in zip(block.block_bytes, block.samples_per_second)
        ],
        title=(
            f"Ablation: sub-job block size ({block.benchmark}, {block.n_cores} cores; "
            f"best {block.best_block // KIB} KiB, paper uses 1024 KiB)"
        ),
    )
    thread_counts = sorted(next(iter(threads.values())))
    thread_table = format_table(
        ["cores"] + [f"{t} thread(s)" for t in thread_counts],
        [
            [cores] + [threads[cores][t] / 1e6 for t in thread_counts]
            for cores in sorted(threads)
        ],
        title="Ablation: control threads per PE (Msamples/s)",
    )
    crossbar_table = format_table(
        ["request", "direct (GiB/s)", "crossbar (GiB/s)", "loss"],
        [
            [
                f"{size // KIB} KiB",
                direct,
                routed,
                f"{(1 - routed / direct) * 100:.1f}%",
            ]
            for size, (direct, routed) in crossbar.items()
        ],
        title="Ablation: optional HBM crossbar",
    )
    return "\n\n".join([block_table, thread_table, crossbar_table])

"""Compiled-plan vs graph-walk inference speedup (software §V analog).

Measures, on the local machine, what the compiled tensorized plans
(:mod:`repro.spn.plan`) buy over the legacy per-node graph walk for
batch log-likelihood on the paper's NIPS benchmark networks — the same
compile-once/stream-many move the paper's HBM accelerator makes in
hardware, quantified for the CPU baseline the accelerator is compared
against.  The ``same bits`` column checks that the float64 plan
answers equal the walk's bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.experiments.reporting import format_table
from repro.spn.inference import reference_node_log_values
from repro.spn.nips import nips_benchmark
from repro.spn.plan import compile_plan
from repro.spn.plan_eval import plan_log_likelihood

__all__ = ["PlanSpeedupRow", "run_plan_speedup", "format_plan_speedup"]


@dataclass(frozen=True)
class PlanSpeedupRow:
    """Measured plan-vs-walk comparison for one benchmark network."""

    benchmark: str
    n_nodes: int
    n_samples: int
    compile_seconds: float
    walk_seconds: float
    plan_seconds: float
    #: The plan's root log-likelihoods ``array_equal`` the walk's.
    same_bits: bool

    @property
    def speedup(self) -> float:
        """Graph-walk time over plan time (higher is better)."""
        if self.plan_seconds <= 0:
            return float("inf")
        return self.walk_seconds / self.plan_seconds

    @property
    def plan_samples_per_second(self) -> float:
        """Plan-backed throughput on this machine."""
        if self.plan_seconds <= 0:
            return float("inf")
        return self.n_samples / self.plan_seconds


def _best_of(fn, repeats: int):
    """Best-of-*repeats* wall time of ``fn()``, and its last result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_plan_speedup(
    benchmarks: Sequence[str] = ("NIPS20", "NIPS40", "NIPS80"),
    *,
    n_samples: int = 20_000,
    repeats: int = 3,
    seed: int = 0,
) -> Tuple[PlanSpeedupRow, ...]:
    """Time plan-backed vs reference-walk log-likelihood per benchmark.

    Both paths are timed as best-of-*repeats* on the same
    ``(n_samples, n_variables)`` integer batch; the one-time plan
    compile cost is reported separately so the compile-once/execute-
    many amortisation is visible.
    """
    rows = []
    for name in benchmarks:
        bench = nips_benchmark(name)
        spn = bench.spn
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 30, size=(n_samples, bench.n_variables)).astype(
            np.float64
        )
        start = time.perf_counter()
        plan = compile_plan(spn)
        compile_seconds = time.perf_counter() - start
        root = spn.root.id
        walk_seconds, walk = _best_of(
            lambda: reference_node_log_values(spn, data)[root], repeats
        )
        plan_seconds, got = _best_of(lambda: plan_log_likelihood(plan, data), repeats)
        rows.append(
            PlanSpeedupRow(
                benchmark=name,
                n_nodes=plan.n_nodes,
                n_samples=n_samples,
                compile_seconds=compile_seconds,
                walk_seconds=walk_seconds,
                plan_seconds=plan_seconds,
                same_bits=bool(np.array_equal(got, walk)),
            )
        )
    return tuple(rows)


def format_plan_speedup(rows: Sequence[PlanSpeedupRow]) -> str:
    """Render the plan-vs-walk comparison as an aligned table."""
    return format_table(
        [
            "benchmark",
            "nodes",
            "samples",
            "compile [ms]",
            "walk [ms]",
            "plan [ms]",
            "speedup",
            "plan samples/s",
            "same bits",
        ],
        [
            (
                row.benchmark,
                row.n_nodes,
                row.n_samples,
                row.compile_seconds * 1e3,
                row.walk_seconds * 1e3,
                row.plan_seconds * 1e3,
                f"{row.speedup:.2f}x",
                row.plan_samples_per_second,
                "yes" if row.same_bits else "NO",
            )
            for row in rows
        ],
        title="Compiled-plan inference vs per-node graph walk (measured)",
    )

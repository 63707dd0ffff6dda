"""Real CPU inference baselines (measured, not modelled).

``run_cpu_baseline`` drives the batch evaluator over row batches
(sized to stay cache-friendly, per the optimisation guide: vectorise,
avoid copies, mind cache effects).  By default batches run through the
compiled tensorized plan backend (:mod:`repro.spn.plan_eval`); the
``backend`` parameter selects the legacy per-node graph walk instead,
which is what the plan-vs-legacy benchmarks compare against.

``run_sharded_cpu_baseline`` is the multi-core runner for very large
batches: it shards rows across the persistent zero-copy process-pool
executor (:class:`repro.baselines.executor.ParallelPlanExecutor`),
with pool construction and plan compilation paid *outside* the timed
region and reported as ``setup_seconds``.

``naive_log_likelihood`` is an intentionally simple per-sample,
per-node scalar evaluator: far too slow for benchmarking, but an
independent oracle the tests use to validate the vectorised paths.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.baselines.executor import ParallelPlanExecutor, check_batch
from repro.errors import ReproError
from repro.spn.graph import SPN
from repro.spn.inference import reference_node_log_values
from repro.spn.nodes import LeafNode, ProductNode, SumNode
from repro.spn.plan import get_plan
from repro.spn.plan_eval import plan_log_likelihood

__all__ = [
    "CpuBaselineResult",
    "run_cpu_baseline",
    "run_sharded_cpu_baseline",
    "naive_log_likelihood",
]


@dataclass(frozen=True)
class CpuBaselineResult:
    """Measured outcome of a CPU baseline run.

    ``elapsed_seconds`` covers inference only; one-time costs the
    runner paid before the timed region (pool spawn, SPN transfer,
    plan compilation) are reported separately as ``setup_seconds`` so
    ``samples_per_second`` keeps its steady-state meaning: the rate a
    *warm* runner sustains, which is what the paper's CPU column (and
    any serving deployment) is about.
    """

    results: np.ndarray
    n_samples: int
    elapsed_seconds: float
    n_threads: int
    #: One-time setup cost paid outside the timed region (0 for the
    #: runners that have no pool to build).
    setup_seconds: float = 0.0

    @property
    def samples_per_second(self) -> float:
        """Steady-state throughput on this machine.

        The denominator is clamped to the ``perf_counter`` clock
        resolution so a sub-resolution run reports a huge-but-finite
        rate instead of ``inf``.
        """
        resolution = time.get_clock_info("perf_counter").resolution
        elapsed = max(self.elapsed_seconds, resolution, 1e-12)
        return self.n_samples / elapsed


def _check_data(data: np.ndarray, *, dtype=np.float64) -> np.ndarray:
    return check_batch(data, dtype=dtype)


def _batch_evaluator(spn: SPN, backend: str) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve *backend* to a ``chunk -> (batch,) log-likelihoods`` callable."""
    if backend == "plan":
        plan = get_plan(spn)
        return lambda chunk: plan_log_likelihood(plan, chunk)
    if backend == "reference":
        return lambda chunk: reference_node_log_values(spn, chunk)[spn.root.id]
    raise ReproError(
        f"unknown baseline backend {backend!r}; pick 'plan' or 'reference'"
    )


def run_cpu_baseline(
    spn: SPN,
    data: np.ndarray,
    *,
    batch_size: int = 8192,
    backend: str = "plan",
) -> CpuBaselineResult:
    """Single-threaded vectorised batch inference, wall-clock timed.

    ``backend="plan"`` (default) evaluates through the compiled
    tensorized plan; ``backend="reference"`` times the legacy per-node
    graph walk for A/B comparison.
    """
    if batch_size < 1:
        raise ReproError(f"batch_size must be >= 1, got {batch_size}")
    data = _check_data(data)
    evaluate = _batch_evaluator(spn, backend)
    out = np.empty(data.shape[0], dtype=np.float64)
    start = time.perf_counter()
    for begin in range(0, data.shape[0], batch_size):
        chunk = data[begin: begin + batch_size]
        out[begin: begin + len(chunk)] = evaluate(chunk)
    elapsed = time.perf_counter() - start
    return CpuBaselineResult(out, data.shape[0], elapsed, n_threads=1)


def run_sharded_cpu_baseline(
    spn: SPN,
    data: np.ndarray,
    *,
    n_workers: int = 4,
    n_shards: Optional[int] = None,
    dtype=np.float64,
    metrics=None,
) -> CpuBaselineResult:
    """Process-pool sharded plan inference for very large batches.

    Runs on a :class:`~repro.baselines.executor.ParallelPlanExecutor`:
    the pool is built, prewarmed with the compiled plan and its shared
    input/output buffers wired up *before* ``time.perf_counter()``
    starts, so ``elapsed_seconds`` measures inference only and the
    one-time pool cost lands in ``setup_seconds``.  Rows are split
    into ``n_shards`` contiguous shards (default: the executor's
    adaptive oversharding) that workers read straight out of shared
    memory — no array payload is pickled in either direction.

    ``dtype=np.float32`` halves the memory traffic at ~1e-4 absolute
    log-likelihood error; *metrics* forwards a
    :class:`~repro.obs.metrics.MetricsRegistry` to the executor.
    """
    if n_shards is not None and n_shards < 1:
        raise ReproError(f"n_shards must be >= 1, got {n_shards}")
    data = _check_data(data, dtype=dtype)
    with ParallelPlanExecutor(
        spn, n_workers=n_workers, dtype=dtype, metrics=metrics
    ) as executor:
        start = time.perf_counter()
        out = executor.submit(data, n_shards=n_shards)
        elapsed = time.perf_counter() - start
        setup = executor.setup_seconds
        # Read after the submit: the workers that actually ran it (1
        # where no pool could be spawned, or the pool broke).
        n_threads = executor.n_workers
    return CpuBaselineResult(
        out, data.shape[0], elapsed, n_threads=n_threads, setup_seconds=setup
    )


def naive_log_likelihood(spn: SPN, data: np.ndarray) -> np.ndarray:
    """Scalar per-sample reference evaluator (validation oracle)."""
    data = _check_data(data)
    out = np.empty(data.shape[0], dtype=np.float64)
    for row_index in range(data.shape[0]):
        row = data[row_index]
        values = {}
        for node in spn:
            if isinstance(node, LeafNode):
                values[node.id] = float(
                    node.log_density(np.array([row[node.variable]]))[0]
                )
            elif isinstance(node, ProductNode):
                values[node.id] = sum(values[c.id] for c in node.children)
            elif isinstance(node, SumNode):
                total = 0.0
                for child, weight in zip(node.children, node.weights):
                    total += weight * math.exp(values[child.id])
                values[node.id] = math.log(total) if total > 0 else -math.inf
        out[row_index] = values[spn.root.id]
    return out

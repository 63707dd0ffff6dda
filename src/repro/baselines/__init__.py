"""Executable software baselines.

Unlike the *analytic* platform models in :mod:`repro.platforms` (which
reproduce the paper's Fig. 6 at the paper's hardware scale), these are
real, runnable implementations measured on the local machine: the
plan-backed numpy batch-inference baseline (single-threaded and
process-pool sharded), the persistent zero-copy shared-memory
executor behind the sharded runner
(:class:`~repro.baselines.executor.ParallelPlanExecutor`,
``docs/cpu_baselines.md``), and a deliberately naive scalar reference
used to validate everything else.
"""

from repro.baselines.cpu import (
    CpuBaselineResult,
    naive_log_likelihood,
    run_cpu_baseline,
    run_sharded_cpu_baseline,
)
from repro.baselines.executor import ParallelPlanExecutor, check_batch

__all__ = [
    "CpuBaselineResult",
    "ParallelPlanExecutor",
    "check_batch",
    "naive_log_likelihood",
    "run_cpu_baseline",
    "run_sharded_cpu_baseline",
]

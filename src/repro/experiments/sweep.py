"""Process-parallel sweep runner for the experiment drivers.

The fig4/fig6/ablation sweeps are embarrassingly parallel: every
(benchmark, pe_count, panel) point builds its own device and engine and
shares nothing with its neighbours.  :func:`parallel_map` fans such
points across one shared ``ProcessPoolExecutor``, preferring the
``fork`` start method so workers inherit the parent's warm caches
(learned SPNs, compiled cores) instead of re-deriving them per process.

The pool outlives the call and is reused by every later sweep, so pool
spawn is a one-time setup cost, not a per-sweep tax (``repro all``
runs a dozen sweeps back to back).  It is torn down at interpreter
exit, or explicitly via :func:`shutdown_sweep_pool`; a pool whose
worker died is dropped and that sweep completes serially.

Environment knobs:

* ``REPRO_SWEEP_WORKERS`` — worker count; ``1`` (or a single-CPU
  machine) selects the serial path with no pool at all.

Point functions must be module-level (picklable by reference); pass
per-point parameters as a tuple item.  Results come back in item
order, so drivers can zip them against their point lists.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import RuntimeConfigError

__all__ = ["parallel_map", "sweep_worker_count", "shutdown_sweep_pool"]

T = TypeVar("T")
R = TypeVar("R")


def sweep_worker_count(n_items: int, workers: Optional[int] = None) -> int:
    """Resolve the worker count for a sweep of *n_items* points."""
    if workers is None:
        env = os.environ.get("REPRO_SWEEP_WORKERS", "")
        if env:
            try:
                workers = max(1, int(env))
            except ValueError:
                raise RuntimeConfigError(
                    "REPRO_SWEEP_WORKERS must be an integer worker count, "
                    f"got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, min(workers, n_items))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# The shared sweep pool: one ProcessPoolExecutor reused across sweeps,
# so back-to-back drivers (`repro all`) pay pool spawn once instead of
# once per artifact.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shutdown_sweep_pool() -> None:
    """Tear down the shared sweep pool (idempotent)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_sweep_pool)


def _shared_pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown (recreated) if *n_workers* outgrew it."""
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < n_workers:
        shutdown_sweep_pool()
        _POOL = ProcessPoolExecutor(
            max_workers=n_workers, mp_context=_pool_context()
        )
        _POOL_WORKERS = n_workers
    return _POOL


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: Optional[int] = None,
) -> List[R]:
    """Map *fn* over *items*, fanning across the shared pool when it pays.

    Falls back to a plain serial map when only one worker is resolved,
    there is at most one item, or the platform refuses to spawn
    processes (restricted sandboxes) — the result is identical either
    way, parallelism is purely a wall-clock optimisation.  A broken
    shared pool is discarded and the sweep completes serially.
    """
    points: Sequence[T] = list(items)
    n_workers = sweep_worker_count(len(points), workers)
    if n_workers > 1 and len(points) > 1:
        try:
            return list(_shared_pool(n_workers).map(fn, points))
        except (OSError, PermissionError, BrokenProcessPool):
            shutdown_sweep_pool()
    return [fn(point) for point in points]

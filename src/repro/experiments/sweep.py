"""Process-parallel sweep runner for the experiment drivers.

The fig4/fig6/ablation sweeps are embarrassingly parallel: every
(benchmark, pe_count, panel) point builds its own device and engine and
shares nothing with its neighbours.  :func:`parallel_map` fans such
points across a ``ProcessPoolExecutor``, preferring the ``fork`` start
method so workers inherit the parent's warm caches (learned SPNs,
compiled cores) instead of re-deriving them per process.

With ``persistent=True`` the pool outlives the call and is reused by
every later persistent sweep — the same fix the zero-copy
:class:`~repro.baselines.executor.ParallelPlanExecutor` applies to the
CPU baseline: pool spawn is a one-time setup cost, not a per-sweep tax
(``repro all`` runs a dozen sweeps back to back).  The shared pool is
torn down at interpreter exit, or explicitly via
:func:`shutdown_sweep_pool`.

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
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
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


# The shared sweep pool (``persistent=True``): one ProcessPoolExecutor
# reused across sweeps, so back-to-back drivers (`repro all`) pay pool
# spawn once instead of once per artifact.
_PERSISTENT_POOL: Optional[ProcessPoolExecutor] = None
_PERSISTENT_WORKERS = 0


def shutdown_sweep_pool() -> None:
    """Tear down the shared persistent sweep pool (idempotent)."""
    global _PERSISTENT_POOL, _PERSISTENT_WORKERS
    if _PERSISTENT_POOL is not None:
        _PERSISTENT_POOL.shutdown(wait=True)
        _PERSISTENT_POOL = None
        _PERSISTENT_WORKERS = 0


atexit.register(shutdown_sweep_pool)


def _persistent_pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown (recreated) if *n_workers* outgrew it."""
    global _PERSISTENT_POOL, _PERSISTENT_WORKERS
    if _PERSISTENT_POOL is None or _PERSISTENT_WORKERS < n_workers:
        shutdown_sweep_pool()
        _PERSISTENT_POOL = ProcessPoolExecutor(
            max_workers=n_workers, mp_context=_pool_context()
        )
        _PERSISTENT_WORKERS = n_workers
    return _PERSISTENT_POOL


def _timed_call(fn: Callable[[T], R], item: T) -> tuple:
    """Run one sweep point, stamping wall-clock begin/end around it.

    ``perf_counter`` reads ``CLOCK_MONOTONIC``, which is system-wide,
    so stamps taken inside pool workers are comparable to the parent's
    :class:`~repro.obs.trace_export.SpanRecorder` epoch.
    """
    begin = time.perf_counter()
    return fn(item), os.getpid(), begin, time.perf_counter()


def _unwrap_timed(
    wrapped: Sequence[tuple], host_tracer, span_track: str
) -> List[R]:
    """Record spans from timed results and return the bare values."""
    slots: dict = {}
    results: List[R] = []
    for index, (result, pid, begin, end) in enumerate(wrapped):
        slot = slots.setdefault(pid, len(slots))
        host_tracer.record(
            f"{span_track} worker{slot}", f"point{index}", begin, end
        )
        results.append(result)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: Optional[int] = None,
    chunksize: int = 1,
    persistent: bool = False,
    host_tracer=None,
    span_track: str = "sweep",
) -> List[R]:
    """Map *fn* over *items*, fanning across processes when it pays.

    Falls back to a plain serial map when only one worker is resolved,
    there is at most one item, or the platform refuses to spawn
    processes (restricted sandboxes) — the result is identical either
    way, parallelism is purely a wall-clock optimisation.

    With *persistent* the call draws on the shared long-lived sweep
    pool instead of spawning (and tearing down) its own; a broken
    shared pool is discarded and the sweep completes serially.

    With *host_tracer* (a :class:`~repro.obs.trace_export.
    SpanRecorder`) every point records a wall-clock span on its
    worker's ``{span_track} worker{n}`` track — only ``(pid, t0, t1)``
    extra floats cross the pipe per point, and with no recorder the
    path is byte-identical to before.
    """
    points: Sequence[T] = list(items)
    n_workers = sweep_worker_count(len(points), workers)
    mapper = partial(_timed_call, fn) if host_tracer is not None else fn
    if n_workers <= 1 or len(points) <= 1:
        raw = [mapper(point) for point in points]
    else:
        try:
            if persistent:
                pool = _persistent_pool(n_workers)
                raw = list(pool.map(mapper, points, chunksize=chunksize))
            else:
                with ProcessPoolExecutor(
                    max_workers=n_workers, mp_context=_pool_context()
                ) as pool:
                    raw = list(pool.map(mapper, points, chunksize=chunksize))
        except (OSError, PermissionError, BrokenProcessPool):
            if persistent:
                shutdown_sweep_pool()
            raw = [mapper(point) for point in points]
    if host_tracer is not None:
        return _unwrap_timed(raw, host_tracer, span_track)
    return raw

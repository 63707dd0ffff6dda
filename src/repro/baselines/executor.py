"""Zero-copy shared-memory parallel inference executor.

The paper's headline speedups (§V-D) are stated against a multi-core
CPU running batch SPN inference, so the CPU baseline must not burn its
time on artefacts of the harness: pool spawn, SPN pickling and plan
compilation inside the timed region, or array payloads pickled through
pipes on a workload that is memory-bandwidth bound to begin with.

:class:`ParallelPlanExecutor` evaluates every batch one of two ways,
chosen per batch by one predicate (``_pool_for``):

* **in-process** — one ``kernel.log_likelihood`` /
  :func:`~repro.spn.plan_eval.plan_log_likelihood` call on the array
  where it lies (the caller's batch, or a lane's arena): no staging
  copy, no pipe.  Native kernels (codegen v2) carry their own
  thread-parallel driver, so this path is multi-core on its own; the
  thread count scales with the batch and is capped at ``n_workers``;
* **a lane over the pool** — the batch lives in a lane's
  :mod:`multiprocessing.shared_memory` arena; each worker of a
  persistent, prewarmed process pool (spawn, SPN transfer and plan
  compilation paid once, reported as
  :attr:`~ParallelPlanExecutor.setup_seconds`) maps the segment and
  evaluates its ``(begin, end)`` row span in place, writing into the
  lane's shared output segment.  Only a tuple of a few names and
  integers crosses a pipe per shard.  More shards than workers
  (default 4x, floored at
  :attr:`~ParallelPlanExecutor.min_rows_per_shard` rows per shard) so
  an unlucky worker never strands the tail of the batch.

A producer that writes rows straight into a lane arena
(:meth:`~ParallelPlanExecutor.acquire_lane`, the serving broker) pays
no copy at all; :meth:`~ParallelPlanExecutor.submit` takes an array
the caller already holds, so on a pooled executor it checks out a
lane, copies the batch into its arena once, and rides the same path.

* **precision control** — ``dtype=float32`` threads down into the
  evaluator, halving the memory traffic of the chunked evaluation
  (float64 accumulation in the log-sum-exp keeps the error ~1e-4
  absolute);
* **backend control** — ``backend="native"`` runs every batch on the
  per-plan compiled C kernel (:mod:`repro.compiler.native_build`);
  the parent builds the artifact once during setup and workers only
  ``dlopen`` the inherited path, so the one-time compile cost never
  multiplies with the pool size;
* **dispatch control** — ``dispatch="auto"`` (default) keeps native
  batches in-process whenever the artifact has a thread runtime and
  then never spawns the pool at all; plan-backed batches, and large
  batches on a thread-less (serial) artifact, go over the pool.
  ``"pool"`` pins the pool.  Inside forked workers kernel threads are
  always pinned to 1, so pool dispatch can never nest-oversubscribe
  the machine;
* **observability** — with a :class:`~repro.obs.metrics.MetricsRegistry`
  attached the executor records shards dispatched, shared-memory bytes
  in/out, per-worker busy seconds and dispatch latency under
  ``executor.*`` names, which ``repro report --host`` fuses into a
  host-side utilization report.  Without a registry every update site
  is a single ``is not None`` check — zero perturbation.

Workers prefer the ``fork`` start method, inheriting the parent's SPN
object *and* its compiled plan through the plan cache — on fork
platforms not even the SPN is pickled.  Where processes cannot be
spawned at all (restricted sandboxes), or a worker dies mid-life, the
executor degrades to in-process evaluation with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import uuid
import weakref
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.spn.graph import SPN
from repro.spn.plan import InferencePlan, get_plan
from repro.spn.plan_eval import plan_log_likelihood

__all__ = ["ExecutorLane", "ParallelPlanExecutor", "check_batch"]

#: Default floor on rows per shard; below it the per-shard dispatch
#: overhead (one pipe round-trip) is no longer amortised.
DEFAULT_MIN_ROWS_PER_SHARD = 8192

#: Default oversharding factor: shards per worker, for load balance.
DEFAULT_OVERSHARD = 4

#: Default cap on concurrently acquired staging lanes per executor.
DEFAULT_MAX_LANES = 8


def check_batch(data: np.ndarray, *, dtype=np.float64) -> np.ndarray:
    """Validate a batch and coerce it to *dtype* without needless copies.

    A C-contiguous array already in *dtype* is returned as-is (the
    zero-copy fast path the executor's shared input buffer relies on);
    anything else is converted.  Non-numeric input raises a clear
    :class:`~repro.errors.ReproError` instead of a numpy cast error.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ReproError(f"dtype must be float32 or float64, got {dtype}")
    try:
        data = np.asarray(data)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"data is not array-like: {exc}") from None
    if data.dtype.kind not in "biuf":
        raise ReproError(
            f"data must be numeric, got dtype {data.dtype} "
            "(strings/objects cannot be evaluated)"
        )
    if data.ndim != 2 or data.shape[0] == 0:
        raise ReproError(f"data must be a non-empty 2-D matrix, got shape {data.shape}")
    if data.dtype == dtype and data.flags.c_contiguous:
        return data
    return np.ascontiguousarray(data, dtype=dtype)


# -- worker-side state --------------------------------------------------------
# Fork workers inherit `_FORK_REGISTRY` (and, through the plan cache,
# the already-compiled plans) without any pickling; spawn workers
# receive the SPN once via initargs — setup cost, never per submit.
# The registry is keyed per executor so concurrent executors (and
# workers the pool spawns lazily, mid-life) always find their own SPN;
# entries live until the owning executor closes.
_FORK_REGISTRY: Dict[str, SPN] = {}
_W_PLAN: Optional[InferencePlan] = None
_W_KERNEL = None
_W_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _worker_load_kernel(native_path: Optional[str], dtype_str: str) -> None:
    """Bind the parent-built native artifact, if the executor has one.

    Workers never invoke the C compiler: the parent built (or
    cache-hit) the artifact during setup and the workers only dlopen
    the inherited *path* — per-fork rebuilds would multiply the build
    cost by the pool size and race on the cache.
    """
    global _W_KERNEL
    _W_KERNEL = None
    if native_path is None:
        return
    from repro.compiler.native_build import load_kernel

    _W_KERNEL = load_kernel(native_path, _W_PLAN, np.dtype(dtype_str))


def _worker_init_pickle(spn: SPN, native_path: Optional[str] = None,
                        dtype_str: str = "float64") -> None:
    """Pool initializer (spawn): receive the SPN once, compile its plan."""
    global _W_PLAN
    _W_PLAN = get_plan(spn)
    _worker_load_kernel(native_path, dtype_str)


def _worker_init_fork(token: str, native_path: Optional[str] = None,
                      dtype_str: str = "float64") -> None:
    """Pool initializer (fork): adopt the inherited SPN + plan."""
    _worker_init_pickle(_FORK_REGISTRY[token], native_path, dtype_str)


def _worker_attach(name: str) -> shared_memory.SharedMemory:
    """Map a shared segment by name, cached across tasks.

    Workers share the parent's shm resource tracker (fork inherits
    its fd; Unix spawn passes it in the preparation data), so the
    attach-side ``register`` is a set no-op there and the parent's
    single ``unlink`` settles the books — workers must *not*
    unregister, that would strip the parent's own registration.
    """
    segment = _W_SEGMENTS.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _W_SEGMENTS[name] = segment
    return segment


def _worker_prune(keep: frozenset) -> None:
    """Unmap cached segments the parent has since replaced."""
    for name in list(_W_SEGMENTS):
        if name not in keep:
            _W_SEGMENTS.pop(name).close()


def _worker_warm() -> int:
    """No-op task that forces worker spawn + initializer completion."""
    return os.getpid()


def _worker_eval(task: tuple) -> Tuple[int, float, float]:
    """Evaluate one ``(begin, end)`` row span entirely through shm.

    Returns ``(pid, start, end)`` wall-clock ``perf_counter`` stamps —
    a few bytes, never an array.  The stamps are comparable across
    processes (``CLOCK_MONOTONIC`` is system-wide), so the parent can
    derive both per-worker busy time and wall-clock trace spans.
    """
    (
        in_name,
        out_name,
        begin,
        end,
        n_rows,
        n_cols,
        dtype_str,
        marginalized,
        missing_value,
        keep_names,
    ) = task
    start = time.perf_counter()
    # Prune against the *full* set of segments the parent still owns —
    # with several staging lanes in flight, pruning down to just this
    # task's pair would unmap (and force re-attach of) every other
    # lane's perfectly live segments on each shard.
    _worker_prune(frozenset(keep_names))
    dtype = np.dtype(dtype_str)
    data = np.ndarray(
        (n_rows, n_cols), dtype=dtype, buffer=_worker_attach(in_name).buf
    )
    out = np.ndarray(
        (n_rows,), dtype=np.float64, buffer=_worker_attach(out_name).buf
    )
    if _W_KERNEL is not None:
        # threads=1: the pool already owns the machine's parallelism —
        # one kernel thread per forked worker, never threads*workers.
        out[begin:end] = _W_KERNEL.log_likelihood(
            data[begin:end],
            marginalized=marginalized,
            missing_value=missing_value,
            threads=1,
        )
    else:
        out[begin:end] = plan_log_likelihood(
            _W_PLAN,
            data[begin:end],
            marginalized=marginalized,
            missing_value=missing_value,
            dtype=dtype,
        )
    return os.getpid(), start, time.perf_counter()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _global_backend() -> str:
    """The process-wide inference backend (lazy import, no cycle)."""
    from repro.spn.inference import get_inference_backend

    return get_inference_backend()


def _release_shared_state(state: Dict[str, object]) -> None:
    """Unlink an executor's shared segments and fork-registry entry.

    This is the single place executor-owned process-wide state is
    released, invoked through :func:`weakref.finalize` — so it runs
    exactly once whether the executor is :meth:`~ParallelPlanExecutor.
    close`\\ d explicitly (possibly twice), garbage collected, or the
    interpreter exits on an interrupt with the executor still alive.
    Without it an aborted long-running process (the serving broker
    keeps one executor alive for hours) leaks ``/dev/shm`` segments
    until reboot.

    *state* is a plain mutable dict rather than the executor itself so
    the finalizer holds no reference that would keep the executor
    alive.  Keys: ``"token"`` the fork-registry key; every other entry
    is a shared segment — one ``"lane{k}.in"``/``"lane{k}.out"`` pair
    per lane ever acquired on a pooled executor (one of a pair is
    absent after a failed regrow).
    """
    token = state.pop("token", None)
    if token is not None:
        _FORK_REGISTRY.pop(token, None)
    for key in list(state):
        segment = state.pop(key, None)
        if segment is None:
            continue
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - view still live
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ExecutorLane:
    """One reentrant staging lane of a :class:`ParallelPlanExecutor`.

    A lane is a pre-allocated input arena (shared-memory backed when
    the executor runs a pool, a plain array otherwise) plus a private
    output buffer.  The producer writes rows **directly** into
    :attr:`arena` — no intermediate list, no ``np.stack`` — then calls
    :meth:`submit` with the filled row count; the executor evaluates
    the arena *in place*, so this path has no copy to bill.
    Because each lane owns its own segments, any number of lanes (up
    to the executor's ``max_lanes``) can be in flight concurrently
    from different threads: this is what lets the serving broker keep
    coalescing batch *k+1* while batches *k, k-1, ...* are still on
    the workers, the software analogue of the paper's many in-flight
    HBM read streams (§V).

    Acquire with :meth:`ParallelPlanExecutor.acquire_lane`, give back
    with :meth:`release` (lanes and their segments are pooled and
    reused, so steady-state serving allocates nothing).
    """

    def __init__(self, executor: "ParallelPlanExecutor", lane_id: int):
        self._executor = executor
        self._lane_id = lane_id
        self._capacity = 0
        self._in_view: Optional[np.ndarray] = None
        self._out_view: Optional[np.ndarray] = None
        self._shm_names: Tuple[str, ...] = ()
        self._released = True

    @property
    def lane_id(self) -> int:
        """Stable small index of this lane within its executor."""
        return self._lane_id

    @property
    def capacity_rows(self) -> int:
        """Rows the arena can hold before a re-acquire must regrow it."""
        return self._capacity

    @property
    def arena(self) -> np.ndarray:
        """The writable ``(capacity_rows, n_variables)`` input arena.

        Write request rows here (``arena[i] = row``), then
        :meth:`submit` the filled prefix.  The view stays valid until
        :meth:`release`.
        """
        if self._released or self._in_view is None:
            raise ReproError(
                "lane arena accessed outside an acquire/release window; "
                "call ParallelPlanExecutor.acquire_lane() first"
            )
        return self._in_view

    def _drop_views(self) -> None:
        """Forget the arena: a live numpy view keeps its segment's
        mmap exported, and ``close()`` on the segment would raise
        ``BufferError`` instead of releasing ``/dev/shm``."""
        self._in_view = None
        self._out_view = None
        self._capacity = 0
        self._shm_names = ()

    def _prepare(self, capacity_rows: int) -> None:
        """(Re)back the arena for *capacity_rows*; executor-lock held."""
        executor = self._executor
        n_cols = executor._plan.n_data_columns
        dtype = executor._dtype
        if executor._pool is not None:
            # Drop stale views first: a regrow replaces the segment.
            self._drop_views()
            in_shm = executor._stage_segment(
                f"lane{self._lane_id}.in",
                capacity_rows * n_cols * dtype.itemsize,
            )
            out_shm = executor._stage_segment(
                f"lane{self._lane_id}.out", capacity_rows * 8
            )
            self._in_view = np.ndarray(
                (capacity_rows, n_cols), dtype=dtype, buffer=in_shm.buf
            )
            self._out_view = np.ndarray(
                (capacity_rows,), dtype=np.float64, buffer=out_shm.buf
            )
            self._shm_names = (in_shm.name, out_shm.name)
        elif self._in_view is None or self._capacity < capacity_rows:
            # No pool, no shm: the arena is evaluated in-process,
            # straight off this array.
            self._in_view = np.empty((capacity_rows, n_cols), dtype=dtype)
            self._out_view = np.empty((capacity_rows,), dtype=np.float64)
            self._shm_names = ()
        self._capacity = self._in_view.shape[0]

    def submit(
        self,
        rows: int,
        *,
        marginalized: Optional[Sequence[int]] = None,
        missing_value: Optional[float] = None,
        stamps: Optional[dict] = None,
    ) -> np.ndarray:
        """Evaluate the first *rows* arena rows; returns float64 lls.

        Reentrant across lanes: concurrent ``submit`` calls on
        *different* lanes of one executor are safe and overlap (the
        plan evaluator and the native kernel both allocate per-call
        scratch only).  A single lane is one producer's staging buffer
        — callers must not submit the same lane concurrently.

        When a *stamps* dict is supplied, the executor fills it with
        ``kernel_start``/``kernel_end`` (``perf_counter`` bounds of
        the engine call) and ``worker_track`` (the trace track of the
        worker span covering them, when host tracing is on) — the
        request-tracing hooks the serving broker threads into its
        per-stage histograms and Perfetto flow arrows.  Results are
        identical with and without it.
        """
        executor = self._executor
        if executor._closed:
            raise ReproError(
                "submit() on a lane of a closed ParallelPlanExecutor; "
                "construct a new executor to keep evaluating"
            )
        if self._released:
            raise ReproError(
                "submit() on a released ExecutorLane; acquire_lane() "
                "hands out a fresh lane for the next batch"
            )
        if not 1 <= rows <= self._capacity:
            raise ReproError(
                f"lane submit rows={rows} outside 1..{self._capacity} "
                "(the lane's arena capacity)"
            )
        if marginalized is not None:
            marginalized = tuple(int(v) for v in marginalized)
        label = f"lane{self._lane_id}.shard"
        pool = executor._pool_for(rows)
        if pool is None:
            return executor._eval_inline(
                self._in_view[:rows], marginalized, missing_value, label,
                stamps=stamps,
            )
        return executor._eval_pool(
            self, pool, rows, marginalized, missing_value, label,
            stamps=stamps,
        )

    def release(self) -> None:
        """Return the lane (and its segments) to the executor's pool."""
        if self._released:
            return
        self._released = True
        executor = self._executor
        with executor._lane_lock:
            if not executor._closed:
                executor._lane_free.append(self)


class ParallelPlanExecutor:
    """Persistent zero-copy process-pool executor for one SPN's plan.

    Construct once (pool spawn + plan compilation are counted into
    :attr:`setup_seconds`), then :meth:`submit` batches as often as
    needed; the steady-state path moves no array payload through any
    pipe.  Use as a context manager, or call :meth:`close` explicitly.

    Parameters
    ----------
    spn:
        The network to serve; its plan is compiled up front.
    n_workers:
        Pool size (default ``os.cpu_count()``, at least 1).
    dtype:
        Evaluation storage precision, ``float64`` (bit-identical to
        :func:`~repro.baselines.cpu.run_cpu_baseline`) or ``float32``
        (half the memory traffic, ~1e-4 absolute error).
    backend:
        Which optimised evaluator the shards run on.  ``None``
        (default) follows the process-wide selection
        (:func:`repro.spn.inference.get_inference_backend`), degrading
        from ``native`` to the numpy plan backend (with the usual
        one-time warning) when no kernel can be built.  An explicit
        ``"native"`` is strict — construction raises
        :class:`~repro.errors.NativeBackendError` when the kernel is
        unavailable; an explicit ``"plan"`` pins the numpy kernels.
        With the native backend the parent builds (or cache-hits) the
        kernel artifact during setup and workers only ``dlopen`` the
        inherited path — never rebuild per fork.
    dispatch:
        How batches reach the cores.  ``"auto"`` (default) runs native
        batches through the kernel's in-process thread driver whenever
        the artifact supports threads (skipping pool spawn entirely);
        with a thread-less (serial) artifact it keeps small batches
        in-process and shards large ones over the pool; plan-backed
        executors always use the pool.  ``"pool"`` forces the process
        pool.  Results are identical on every path.
    min_rows_per_shard:
        Adaptive-oversharding floor: never split finer than this.
    overshard:
        Target shards per worker for load balance (default 4).
    max_lanes:
        Cap on concurrently acquired staging lanes
        (:meth:`acquire_lane`, default 8).  Each lane pins one
        input + one output segment for its arena, so the cap bounds
        ``/dev/shm`` held by an executor to roughly
        ``max_lanes * capacity_rows * row_bytes``.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        given the executor records ``executor.*`` counters.
    host_tracer:
        Optional :class:`~repro.obs.trace_export.HostSpanRecorder`;
        when given every shard evaluation records a wall-clock span on
        its worker's track, exportable to Perfetto (``repro trace``).
    """

    def __init__(
        self,
        spn: SPN,
        *,
        n_workers: Optional[int] = None,
        dtype=np.float64,
        backend: Optional[str] = None,
        dispatch: str = "auto",
        min_rows_per_shard: int = DEFAULT_MIN_ROWS_PER_SHARD,
        overshard: int = DEFAULT_OVERSHARD,
        max_lanes: int = DEFAULT_MAX_LANES,
        metrics=None,
        host_tracer=None,
    ):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        if min_rows_per_shard < 1:
            raise ReproError(
                f"min_rows_per_shard must be >= 1, got {min_rows_per_shard}"
            )
        if overshard < 1:
            raise ReproError(f"overshard must be >= 1, got {overshard}")
        if max_lanes < 1:
            raise ReproError(f"max_lanes must be >= 1, got {max_lanes}")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ReproError(f"dtype must be float32 or float64, got {dtype}")
        if backend not in (None, "plan", "native"):
            raise ReproError(
                f"unknown executor backend {backend!r}; "
                "pick None, 'plan' or 'native'"
            )
        if dispatch not in ("auto", "pool"):
            raise ReproError(
                f"unknown executor dispatch {dispatch!r}; "
                "pick 'auto' or 'pool'"
            )

        self._spn = spn
        self._dtype = dtype
        self._n_workers = n_workers
        self.min_rows_per_shard = min_rows_per_shard
        self.overshard = overshard
        self._closed = False
        # Shared segments + fork-registry token live in one mutable dict
        # owned by a `weakref.finalize` guard: explicit close(), GC and
        # interpreter exit all funnel into `_release_shared_state`,
        # which runs at most once — no /dev/shm leak when the process
        # dies without a clean close(), no double-unlink when close()
        # is called twice.
        self._shm_state: Dict[str, object] = {}
        self._finalizer = weakref.finalize(
            self, _release_shared_state, self._shm_state
        )
        self._registry = metrics
        self._host_tracer = host_tracer
        self._worker_slots: Dict[int, int] = {}
        self._max_lanes = max_lanes
        self._lanes: List[ExecutorLane] = []
        self._lane_free: List[ExecutorLane] = []
        # Lock order (never reversed): _lane_lock -> _shm_lock.
        # _metrics_lock is a leaf, taken around counter folds only —
        # lanes submit from several broker dispatch threads at once
        # and the counters' read-modify-write would otherwise race.
        self._lane_lock = threading.Lock()
        self._shm_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        if metrics is not None:
            self._m_submits = metrics.counter("executor.submits")
            self._m_rows = metrics.counter("executor.rows")
            self._m_shards = metrics.counter("executor.shards")
            self._m_bytes_in = metrics.counter("executor.bytes_in")
            self._m_bytes_out = metrics.counter("executor.bytes_out")
            self._m_dispatch = metrics.counter("executor.dispatch_seconds")
            self._m_compute = metrics.counter("executor.compute_seconds")
        else:
            self._m_submits = None

        start = time.perf_counter()
        self._plan = get_plan(spn)
        self._kernel = None
        self._native_path: Optional[str] = None
        if backend == "native" or (
            backend is None and _global_backend() == "native"
        ):
            from repro.compiler.native_build import get_native_kernel

            # Strict on explicit request (raise before any pool spawn),
            # graceful when merely following the process-wide switch.
            self._kernel = get_native_kernel(
                self._plan, dtype, require=backend == "native"
            )
            if self._kernel is not None:
                self._native_path = str(self._kernel.path)
        self._backend = "native" if self._kernel is not None else "plan"
        self._dispatch = dispatch
        # When every batch is guaranteed to take the in-process threaded
        # path, the process pool would be dead weight - skip spawning it
        # (the fork/prewarm cost vanishes from setup_seconds).
        threads_only = (
            dispatch == "auto"
            and self._kernel is not None
            and self._kernel.supports_threads
        )
        self._pool = None if threads_only else self._start_pool()
        self.setup_seconds = time.perf_counter() - start

    # -- lifecycle --------------------------------------------------------------
    def _start_pool(self) -> Optional[ProcessPoolExecutor]:
        """Spawn and prewarm the worker pool; None means in-process."""
        if self._n_workers == 1:
            return None
        context = _pool_context()
        try:
            if context.get_start_method() == "fork":
                # Start the parent's shm resource tracker *before*
                # forking so every worker inherits it: attach-side
                # registrations then land in the parent's tracker
                # (set semantics, no double-count) and workers must
                # not unregister — see `_worker_attach`.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
                token = uuid.uuid4().hex
                _FORK_REGISTRY[token] = self._spn
                self._shm_state["token"] = token
                initializer, spn_ref = _worker_init_fork, token
            else:
                initializer, spn_ref = _worker_init_pickle, self._spn
            pool = ProcessPoolExecutor(
                max_workers=self._n_workers,
                mp_context=context,
                initializer=initializer,
                initargs=(spn_ref, self._native_path, self._dtype.name),
            )
            # Touch every worker so spawn + plan compilation happen
            # now, inside setup, not inside the first submit.
            futures = [pool.submit(_worker_warm) for _ in range(self._n_workers)]
            for future in futures:
                future.result()
            return pool
        except (OSError, PermissionError, BrokenProcessPool):
            # Restricted environments cannot spawn processes; fall
            # back to in-process evaluation with identical results.
            self._n_workers = 1
            return None

    def close(self) -> None:
        """Shut the pool down and release the shared-memory segments.

        Idempotent: a second call is a no-op, and the shared-state
        release runs through the ``weakref.finalize`` guard — at most
        once across explicit calls, GC and interpreter exit — even if
        the pool shutdown itself raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            with self._lane_lock:
                for lane in self._lanes:
                    lane._released = True
                    lane._drop_views()
                self._lane_free.clear()
            self._finalizer()

    def __enter__(self) -> "ParallelPlanExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- introspection ----------------------------------------------------------
    @property
    def n_workers(self) -> int:
        """Effective pool size (1 when every batch runs in-process
        because no pool could be spawned, or the pool broke)."""
        return self._n_workers

    @property
    def dtype(self) -> np.dtype:
        """The evaluation storage precision."""
        return self._dtype

    @property
    def backend(self) -> str:
        """The evaluator the shards actually run on: "native" or "plan".

        May read ``"plan"`` even though ``backend=None`` was requested
        while the process-wide switch said native — that is the
        graceful degradation on hosts without a C compiler.
        """
        return self._backend

    @property
    def dispatch(self) -> str:
        """The requested dispatch policy: "auto" or "pool"."""
        return self._dispatch

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def n_variables(self) -> int:
        """Columns one batch row must have (the plan's data width)."""
        return self._plan.n_data_columns

    def _pool_for(self, rows: int) -> Optional[ProcessPoolExecutor]:
        """The one dispatch decision: the pool a batch of *rows* fans
        out over, or None to evaluate it in-process.

        There is no pool when ``"auto"`` found a thread-capable native
        artifact, when ``n_workers == 1``, when processes cannot be
        spawned, or after a worker died.  With one, ``"pool"`` and
        plan-backed executors always use it; ``"auto"`` over a
        thread-less (serial) artifact keeps a batch in-process while
        it is too small to fill more than one shard.

        The read of ``self._pool`` is a snapshot: a concurrent
        :meth:`close` (broker shutdown with a batch in flight) nulls
        it, and the snapshot keeps this batch on one coherent path —
        the staging/dispatch guards turn the race into a clear
        :class:`~repro.errors.ReproError`.
        """
        pool = self._pool
        if (
            pool is not None
            and self._kernel is not None
            and self._dispatch == "auto"
            and rows // self.min_rows_per_shard <= 1
        ):
            return None
        return pool

    # -- shared-memory staging --------------------------------------------------
    @staticmethod
    def _new_segment(n_bytes: int) -> shared_memory.SharedMemory:
        name = f"repro-ppe-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        return shared_memory.SharedMemory(name=name, create=True, size=n_bytes)

    @staticmethod
    def _closed_in_flight() -> ReproError:
        return ReproError(
            "ParallelPlanExecutor was close()d while a batch was in "
            "flight; construct a new executor to keep evaluating"
        )

    def _stage_segment(self, key: str, n_bytes: int) -> shared_memory.SharedMemory:
        """Reuse the ``key`` segment if large enough, else replace it.

        Replaced segments are unlinked immediately; workers unmap their
        stale attachment on the next task they receive.  The tracked
        reference is dropped *before* the replacement allocation, so a
        failed regrow (ENOSPC on /dev/shm) leaves no dangling entry —
        a subsequent :meth:`close` (or the finalizer) stays safe
        instead of double-unlinking a segment that was already
        released.
        """
        if self._closed:
            raise self._closed_in_flight()
        with self._shm_lock:
            segment = self._shm_state.get(key)
            if segment is not None and segment.size >= n_bytes:
                return segment
            if segment is not None:
                del self._shm_state[key]
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            # 25% slack so a stream of slightly-growing batches does not
            # reallocate on every submit.
            segment = self._new_segment(n_bytes + n_bytes // 4)
            self._shm_state[key] = segment
            return segment

    def _live_segment_names(self) -> Tuple[str, ...]:
        """Names of every segment the executor currently owns.

        Shipped with each worker task as the prune keep-set so a
        worker serving one lane's shard never unmaps another lane's
        still-live attachment.
        """
        with self._shm_lock:
            return tuple(
                value.name
                for value in self._shm_state.values()
                if isinstance(value, shared_memory.SharedMemory)
            )

    def _shard_spans(
        self, rows: int, n_shards: Optional[int]
    ) -> List[Tuple[int, int]]:
        """Contiguous row spans for one submit (adaptive oversharding)."""
        if n_shards is None:
            by_floor = max(1, rows // self.min_rows_per_shard)
            n_shards = min(self._n_workers * self.overshard, by_floor)
        n_shards = min(n_shards, rows)
        bounds = np.linspace(0, rows, n_shards + 1).astype(np.int64)
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_shards)
            if bounds[i + 1] > bounds[i]
        ]

    def _worker_slot(self, pid: int) -> int:
        """Stable small index for a worker process id."""
        slot = self._worker_slots.get(pid)
        if slot is None:
            slot = self._worker_slots[pid] = len(self._worker_slots)
        return slot

    def _record_worker_span(
        self, pid: int, label: str, begin: float, end: float
    ) -> None:
        if self._host_tracer is None:
            return
        self._host_tracer.record(
            f"executor worker{self._worker_slot(pid)}",
            label,
            begin,
            end,
        )

    def _account_shards(
        self, completed: Iterable[Tuple[str, Tuple[int, float, float]]]
    ) -> Dict[int, float]:
        """Fold per-shard worker stamps into busy time + trace spans.

        *completed* yields ``(label, (pid, start, end))`` in whatever
        order shards actually finish — accounting is per-shard
        associative, so completion order attributes each worker's busy
        seconds (and its ``executor worker{n}`` span) the moment its
        shard returns instead of after every earlier-indexed shard.
        """
        busy_by_pid: Dict[int, float] = {}
        for label, (pid, t0, t1) in completed:
            busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + (t1 - t0)
            self._record_worker_span(pid, label, t0, t1)
        return busy_by_pid

    def _run_pool_shards(
        self, pool: ProcessPoolExecutor, tasks: List[tuple], label_prefix: str
    ) -> Dict[int, float]:
        """Dispatch shard tasks and account them in completion order.

        ``pool.submit`` + ``as_completed`` rather than the ordered
        ``pool.map``: map's result iterator blocks on shard *i* before
        yielding shard *i+1* even when the latter finished first, so a
        slow early shard used to delay every later shard's span and
        busy-seconds attribution (and, for lanes, would serialize
        nothing-in-common batches behind each other's stragglers).
        """
        futures = {
            pool.submit(_worker_eval, task): f"{label_prefix}{shard}"
            for shard, task in enumerate(tasks)
        }

        def completed():
            for future in as_completed(futures):
                yield futures[future], future.result()

        return self._account_shards(completed())

    # -- the hot path -----------------------------------------------------------
    def submit(
        self,
        data: np.ndarray,
        *,
        marginalized: Optional[Sequence[int]] = None,
        missing_value: Optional[float] = None,
        n_shards: Optional[int] = None,
    ) -> np.ndarray:
        """Evaluate one batch; returns ``(batch,)`` float64 log-likelihoods.

        In-process executors evaluate *data* where it lies.  A pooled
        executor checks out a lane, copies the batch into its
        shared-memory arena (the one memcpy of the path), fans it out
        as ``(begin, end)`` spans and collects the lane's shared
        output buffer — so concurrent callers overlap on their own
        lanes, and with all ``max_lanes`` lanes checked out the call
        raises like :meth:`acquire_lane`.  *marginalized* /
        *missing_value* carry the query semantics of
        :func:`~repro.spn.plan_eval.plan_log_likelihood`.  *n_shards*
        overrides the adaptive split (tests/tuning): pool shards, or
        kernel threads in-process (the numpy plan evaluator chunks
        internally and ignores it).
        """
        if self._closed:
            raise ReproError(
                "submit() on a closed ParallelPlanExecutor: close() has "
                "already released its worker pool and shared-memory "
                "segments; construct a new executor to keep evaluating"
            )
        data = check_batch(data, dtype=self._dtype)
        rows = data.shape[0]
        if marginalized is not None:
            marginalized = tuple(int(v) for v in marginalized)
        if n_shards is not None and n_shards < 1:
            raise ReproError(f"n_shards must be >= 1, got {n_shards}")
        pool = self._pool_for(rows)
        if pool is None:
            return self._eval_inline(
                data, marginalized, missing_value, "shard", threads=n_shards
            )
        lane = self.acquire_lane(rows)
        try:
            np.copyto(lane.arena[:rows], data)
            return self._eval_pool(
                lane, pool, rows, marginalized, missing_value, "shard",
                n_shards=n_shards,
            )
        finally:
            lane.release()

    def acquire_lane(self, capacity_rows: int) -> ExecutorLane:
        """Check out a staging lane whose arena holds *capacity_rows*.

        Lanes are the reentrant front door: each owns its own
        shared-memory arena (or plain buffer without a pool), so up to
        ``max_lanes`` producers can stage **and** evaluate batches
        concurrently.  Released lanes (and their segments) are pooled
        and reused; a re-acquire with a larger capacity regrows the
        arena in place.  Raises :class:`~repro.errors.ReproError` when
        all ``max_lanes`` lanes are already out (the caller is holding
        lanes it never released) or the executor is closed.
        """
        if self._closed:
            raise ReproError(
                "acquire_lane() on a closed ParallelPlanExecutor; "
                "construct a new executor to keep evaluating"
            )
        if capacity_rows < 1:
            raise ReproError(
                f"capacity_rows must be >= 1, got {capacity_rows}"
            )
        with self._lane_lock:
            if self._lane_free:
                lane = self._lane_free.pop()
            elif len(self._lanes) < self._max_lanes:
                lane = ExecutorLane(self, len(self._lanes))
                self._lanes.append(lane)
            else:
                raise ReproError(
                    f"all {self._max_lanes} executor lanes are checked "
                    "out; release() one or construct the executor with "
                    "a larger max_lanes"
                )
            try:
                lane._prepare(capacity_rows)
            except BaseException:
                # A failed (re)backing (ENOSPC on /dev/shm) must not
                # cost the lane: hand it back empty, or max_lanes
                # transient failures would leave none to acquire.
                lane._drop_views()
                self._lane_free.append(lane)
                raise
            lane._released = False
            return lane

    def _fold_metrics(
        self,
        rows: int,
        shards: int,
        wall: float,
        busy_by_pid: Dict[int, float],
        *,
        shm_bytes_in: int = 0,
        kernel_threads: int = 0,
    ) -> None:
        """Fold one evaluated batch into the ``executor.*`` counters."""
        if self._m_submits is None:
            return
        with self._metrics_lock:
            self._m_submits.add(1)
            self._m_rows.add(rows)
            self._m_shards.add(shards)
            self._m_compute.add(wall)
            if shm_bytes_in:
                self._m_bytes_in.add(shm_bytes_in)
                self._m_bytes_out.add(rows * 8)
                self._m_dispatch.add(
                    max(0.0, wall - max(busy_by_pid.values()))
                )
            if kernel_threads:
                self._registry.counter("executor.kernel_threads").add(
                    kernel_threads
                )
            for pid, busy in busy_by_pid.items():
                self._registry.counter(
                    f"executor.worker{self._worker_slot(pid)}.busy_seconds"
                ).add(busy)

    def _eval_inline(
        self,
        data: np.ndarray,
        marginalized: Optional[Tuple[int, ...]],
        missing_value: Optional[float],
        label: str,
        *,
        threads: Optional[int] = None,
        stamps: Optional[dict] = None,
    ) -> np.ndarray:
        """The in-process evaluator: one call on *data* where it lies.

        *data* is the caller's batch or a lane's arena prefix, never a
        staging copy.  A native kernel runs the whole batch through
        its thread-parallel block driver — *threads* wide, by default
        one thread per ``min_rows_per_shard`` rows capped at
        ``n_workers``; results are bit-identical for every count
        because the kernel's block partition never depends on it.
        The numpy plan evaluator chunks to its cache budget itself.
        """
        rows = data.shape[0]
        pid = os.getpid()
        t0 = time.perf_counter()
        if self._kernel is not None:
            if threads is None:
                threads = max(
                    1, min(self._n_workers, rows // self.min_rows_per_shard)
                )
            out = self._kernel.log_likelihood(
                data,
                marginalized=marginalized,
                missing_value=missing_value,
                threads=threads,
            )
        else:
            threads = 0  # the numpy evaluator chunks itself: nothing to count
            out = plan_log_likelihood(
                self._plan,
                data,
                marginalized=marginalized,
                missing_value=missing_value,
                dtype=self._dtype,
            )
        t1 = time.perf_counter()
        self._record_worker_span(pid, f"{label}0", t0, t1)
        if stamps is not None:
            stamps["kernel_start"] = t0
            stamps["kernel_end"] = t1
            if self._host_tracer is not None:
                # The worker span above starts exactly at kernel_start,
                # so a flow arrow finishing there lands inside it.
                stamps["worker_track"] = (
                    f"executor worker{self._worker_slot(pid)}"
                )
        self._fold_metrics(
            rows, 1, t1 - t0, {pid: t1 - t0}, kernel_threads=threads
        )
        return out

    def _eval_pool(
        self,
        lane: ExecutorLane,
        pool: ProcessPoolExecutor,
        rows: int,
        marginalized: Optional[Tuple[int, ...]],
        missing_value: Optional[float],
        label: str,
        *,
        n_shards: Optional[int] = None,
        stamps: Optional[dict] = None,
    ) -> np.ndarray:
        """Fan a lane's filled arena prefix over the worker pool.

        The rows are already in the lane's shared input segment, so
        dispatch is purely task tuples down the pipe; shards are
        collected in completion order.  A worker that died (OOM
        killer, hard crash) costs the pool, not the batch: it is
        finished in-process and later batches see no pool.
        """
        if not lane._shm_names:
            if self._closed:
                raise self._closed_in_flight()
            # Backed after the pool died: plain memory no worker can
            # map.  Same degradation as a pool that breaks mid-batch.
            return self._eval_inline(
                lane._in_view[:rows], marginalized, missing_value, label,
                stamps=stamps,
            )
        in_name, out_name = lane._shm_names
        n_cols = lane._in_view.shape[1]
        spans = self._shard_spans(rows, n_shards)
        start = time.perf_counter()
        keep_names = self._live_segment_names()
        tasks = [
            (
                in_name,
                out_name,
                begin,
                end,
                lane._capacity,
                n_cols,
                self._dtype.str,
                marginalized,
                missing_value,
                keep_names,
            )
            for begin, end in spans
        ]
        try:
            busy_by_pid = self._run_pool_shards(pool, tasks, label)
        except BrokenProcessPool:
            pool.shutdown(wait=False)
            self._pool = None
            self._n_workers = 1
            return self._eval_inline(
                lane._in_view[:rows], marginalized, missing_value, label,
                stamps=stamps,
            )
        except RuntimeError:
            if self._closed:
                raise self._closed_in_flight() from None
            raise
        wall = time.perf_counter() - start
        if stamps is not None:
            # Pooled shards overlap across worker processes, so the
            # kernel interval is the pool fan-out wall; no single
            # worker span covers it.
            stamps["kernel_start"] = start
            stamps["kernel_end"] = start + wall
        result = np.array(lane._out_view[:rows])
        self._fold_metrics(
            rows,
            len(spans),
            wall,
            busy_by_pid,
            shm_bytes_in=rows * n_cols * self._dtype.itemsize,
        )
        return result

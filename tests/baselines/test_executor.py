"""Tests for the zero-copy shared-memory parallel inference executor.

Correctness is anchored two ways: bit-identical float64 agreement with
the single-process ``run_cpu_baseline`` (the executor must be a pure
transport, never a numerics change) and agreement with the independent
scalar oracle ``naive_log_likelihood`` for both precisions.  The rest
covers lifecycle, adaptive oversharding, the shared-buffer regrow
path, the metrics contract, and the fault paths: a killed pool worker,
lane exhaustion, transient ``/dev/shm`` allocation failures.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.baselines import (
    ParallelPlanExecutor,
    check_batch,
    naive_log_likelihood,
    run_cpu_baseline,
)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.spn import random_spn


@pytest.fixture(scope="module")
def setup():
    spn = random_spn(8, depth=3, n_bins=8, seed=31)
    rng = np.random.default_rng(31)
    data = rng.integers(0, 8, size=(4000, 8)).astype(np.float64)
    return spn, data


@pytest.fixture(scope="module")
def executor(setup):
    spn, _ = setup
    with ParallelPlanExecutor(
        spn, n_workers=2, min_rows_per_shard=256
    ) as running:
        yield running


def test_float64_bit_identical_to_single_process(setup, executor):
    """float64 through the executor is bit-identical, not just close:
    shard and chunk splits must not change any row's arithmetic."""
    spn, data = setup
    reference = run_cpu_baseline(spn, data).results
    out = executor.submit(data)
    assert np.array_equal(out, reference)


def test_matches_naive_oracle_float64(setup, executor):
    spn, data = setup
    out = executor.submit(data[:64])
    np.testing.assert_allclose(
        out, naive_log_likelihood(spn, data[:64]), rtol=1e-10
    )


def test_matches_naive_oracle_float32(setup):
    spn, data = setup
    with ParallelPlanExecutor(
        spn, n_workers=2, dtype=np.float32, min_rows_per_shard=256
    ) as running:
        out = running.submit(data[:64])
    assert out.dtype == np.float64  # results are always float64
    np.testing.assert_allclose(
        out, naive_log_likelihood(spn, data[:64]), atol=1e-4
    )


def test_marginal_and_missing_queries(setup, executor):
    """Query semantics pass through the pipe-borne task tuples."""
    spn, data = setup
    reference = run_cpu_baseline(spn, data).results
    marg = executor.submit(data, marginalized=[1, 2])
    assert not np.array_equal(marg, reference)
    from repro.spn import marginal_log_likelihood

    np.testing.assert_allclose(
        marg, marginal_log_likelihood(spn, data, [1, 2]), rtol=1e-12
    )
    poked = data.copy()
    poked[::3, 4] = 255.0
    missing = executor.submit(poked, missing_value=255.0)
    from repro.spn.inference import reference_node_log_values

    expected = reference_node_log_values(
        spn, poked, missing_mask=poked == 255.0
    )[spn.root.id]
    np.testing.assert_allclose(missing, expected, rtol=1e-12)


def test_repeated_submits_and_buffer_regrow(setup, executor):
    """Growing batches force the shared segments to be replaced
    mid-life; results must stay exact throughout."""
    spn, _ = setup
    rng = np.random.default_rng(7)
    for rows in (100, 2500, 11_000):
        batch = rng.integers(0, 8, size=(rows, 8)).astype(np.float64)
        out = executor.submit(batch)
        assert np.array_equal(out, run_cpu_baseline(spn, batch).results)


def test_context_manager_lifecycle(setup):
    spn, data = setup
    with ParallelPlanExecutor(spn, n_workers=1) as running:
        assert not running.closed
        running.submit(data[:16])
    assert running.closed
    with pytest.raises(ReproError):
        running.submit(data[:16])
    running.close()  # idempotent


def test_closed_submit_error_names_close(setup):
    spn, data = setup
    running = ParallelPlanExecutor(spn, n_workers=1)
    running.close()
    with pytest.raises(ReproError, match="close"):
        running.submit(data[:16])


def test_finalizer_releases_segments_without_close(setup):
    """An executor dropped without close() (interrupt, GC) must not
    leak its /dev/shm segments: the weakref.finalize guard unlinks
    them when the object dies."""
    import gc

    from multiprocessing import shared_memory

    spn, data = setup
    running = ParallelPlanExecutor(spn, n_workers=2, min_rows_per_shard=64)
    running.submit(data[:1024])
    names = [
        running._shm_state[key].name
        for key in ("lane0.in", "lane0.out")
        if key in running._shm_state
    ]
    if running.n_workers == 1:  # sandbox without fork: no segments staged
        running.close()
        return
    assert names, "pooled submit should have staged shared segments"
    finalizer = running._finalizer
    del running
    gc.collect()
    assert not finalizer.alive
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_is_idempotent_and_single_release(setup):
    """Double close() must not double-unlink (the finalizer runs at
    most once), and the second call is a clean no-op."""
    spn, data = setup
    running = ParallelPlanExecutor(spn, n_workers=2, min_rows_per_shard=64)
    running.submit(data[:1024])
    running.close()
    assert not running._finalizer.alive
    assert running._shm_state == {}
    running.close()
    assert running.closed


def test_failed_regrow_leaves_close_safe(setup, monkeypatch):
    """If replacing a too-small segment fails (ENOSPC on /dev/shm),
    the stale reference must already be dropped: close() afterwards
    must not try to unlink the released segment again."""
    spn, data = setup
    running = ParallelPlanExecutor(spn, n_workers=2, min_rows_per_shard=64)
    if running.n_workers == 1:
        running.close()
        pytest.skip("no pool in this sandbox; no shared segments to regrow")
    running.submit(data[:256])
    assert "lane0.in" in running._shm_state

    def boom(n_bytes):
        raise OSError("injected: /dev/shm full")

    monkeypatch.setattr(running, "_new_segment", boom)
    with pytest.raises(OSError, match="injected"):
        running.submit(data[:4000])  # forces an input-segment regrow
    assert "lane0.in" not in running._shm_state  # stale entry dropped
    monkeypatch.undo()
    out = running.submit(data[:4000])  # a fresh segment is staged
    assert np.array_equal(out, run_cpu_baseline(spn, data[:4000]).results)
    running.close()
    running.close()


def test_setup_cost_is_reported(setup):
    spn, _ = setup
    with ParallelPlanExecutor(spn, n_workers=2) as running:
        assert running.setup_seconds >= 0.0
        assert running.n_workers in (1, 2)  # 1 if the sandbox forbids fork
        assert running.dtype == np.dtype(np.float64)


def test_adaptive_oversharding_counts(setup):
    """Shards = min(workers * overshard, rows // min_rows_per_shard),
    observed through the metrics registry."""
    spn, data = setup
    metrics = MetricsRegistry()
    with ParallelPlanExecutor(
        spn,
        n_workers=2,
        overshard=4,
        min_rows_per_shard=250,
        metrics=metrics,
    ) as running:
        # Capped by workers * overshard; an in-process evaluation
        # (n_workers fell back to 1 in a sandbox that forbids process
        # spawning) is one call, so one shard, whatever is asked.
        pooled = running.n_workers > 1
        cap = running.n_workers * 4 if pooled else 1
        running.submit(data)  # 4000 rows -> 16 by floor, capped
        total = min(cap, 16)
        assert metrics.value("executor.shards") == total
        running.submit(data[:1000])  # floor: 1000 // 250 = 4 shards
        total += min(cap, 4)
        assert metrics.value("executor.shards") == total
        running.submit(data[:100])  # below the floor: one shard
        total += 1
        assert metrics.value("executor.shards") == total
        running.submit(data, n_shards=3)  # explicit override
        assert metrics.value("executor.shards") == total + (3 if pooled else 1)


def test_metrics_traffic_accounting(setup):
    spn, data = setup
    metrics = MetricsRegistry()
    with ParallelPlanExecutor(
        spn, n_workers=2, min_rows_per_shard=256, metrics=metrics
    ) as running:
        running.submit(data)
        parallel = running.n_workers > 1
    assert metrics.value("executor.submits") == 1
    assert metrics.value("executor.rows") == data.shape[0]
    assert metrics.value("executor.compute_seconds") > 0
    if parallel:
        assert metrics.value("executor.bytes_in") == data.nbytes
        assert metrics.value("executor.bytes_out") == data.shape[0] * 8
        assert metrics.has("executor.worker0.busy_seconds")
        assert metrics.value("executor.worker0.busy_seconds") > 0


def test_concurrent_folds_lose_nothing_and_slots_stay_contiguous(setup):
    """Lanes fold batches from several dispatch threads, each meeting
    new worker pids: no fold is lost, no two pids share a slot, and the
    registered ``executor.worker{n}`` names run contiguously from 0."""
    spn, _ = setup
    metrics = MetricsRegistry()
    n_threads, rounds = 8, 200
    start = threading.Barrier(n_threads, timeout=30)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ParallelPlanExecutor(spn, n_workers=1, metrics=metrics) as running:

            def work(thread):
                start.wait()
                for round_ in range(rounds):
                    pid = 10_000 + thread * rounds + round_ % 4
                    running._fold_metrics(1, 1, 0.0, {pid: 1.0, 1: 1.0})

            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            slots = running._worker_slots
    finally:
        sys.setswitchinterval(interval)
    n_pids = n_threads * 4 + 1
    assert sorted(slots.values()) == list(range(n_pids))
    assert metrics.value("executor.rows") == n_threads * rounds
    busy = [metrics.value(f"executor.worker{n}.busy_seconds") for n in range(n_pids)]
    assert sum(busy) == 2 * n_threads * rounds
    assert busy[slots[1]] == n_threads * rounds
    assert not metrics.has(f"executor.worker{n_pids}.busy_seconds")


def test_serial_fallback_is_exact(setup):
    spn, data = setup
    with ParallelPlanExecutor(spn, n_workers=1) as running:
        assert running.n_workers == 1
        out = running.submit(data)
    assert np.array_equal(out, run_cpu_baseline(spn, data).results)


def test_invalid_construction_rejected(setup):
    spn, data = setup
    with pytest.raises(ReproError):
        ParallelPlanExecutor(spn, n_workers=0)
    with pytest.raises(ReproError):
        ParallelPlanExecutor(spn, min_rows_per_shard=0)
    with pytest.raises(ReproError):
        ParallelPlanExecutor(spn, overshard=0)
    with pytest.raises(ReproError):
        ParallelPlanExecutor(spn, dtype=np.int32)
    with ParallelPlanExecutor(spn, n_workers=1) as running:
        with pytest.raises(ReproError):
            running.submit(data, n_shards=0)


# -- dispatch: in-process kernel threads vs the process pool -----------------


@pytest.fixture(scope="module")
def native_setup(tmp_path_factory, setup):
    """*setup* plus an isolated kernel cache, skipped without a cc."""
    from repro.compiler.native_build import (
        clear_native_kernels,
        compiler_command,
    )

    if compiler_command() is None:
        pytest.skip("no C compiler on this host")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("native-cache")
    )
    clear_native_kernels()
    yield setup
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    clear_native_kernels()


def test_threads_dispatch_matches_pool_bit_for_bit(native_setup):
    """The in-process thread driver (the default dispatch on a
    thread-capable artifact) and the forked pool answer the same
    queries identically — dispatch is transport, not numerics."""
    spn, data = native_setup
    with ParallelPlanExecutor(
        spn, n_workers=2, backend="native", dispatch="pool",
        min_rows_per_shard=256,
    ) as pooled:
        via_pool = pooled.submit(data)
        marg_pool = pooled.submit(data, marginalized=[1, 2])
    with ParallelPlanExecutor(
        spn, n_workers=2, backend="native", min_rows_per_shard=256,
    ) as threaded:
        assert threaded.dispatch == "auto"
        via_threads = threaded.submit(data)
        marg_threads = threaded.submit(data, marginalized=[1, 2])
        sharded = threaded.submit(data, n_shards=3)
    assert np.array_equal(via_pool, via_threads)
    assert np.array_equal(marg_pool, marg_threads)
    assert np.array_equal(via_pool, sharded)
    np.testing.assert_allclose(
        via_threads,
        run_cpu_baseline(spn, data).results,
        rtol=1e-12,
        atol=1e-12,
    )


def test_auto_dispatch_with_kernel_skips_pool(native_setup):
    """``auto`` with a native kernel never forks workers and reports
    the thread counts it actually used."""
    spn, data = native_setup
    metrics = MetricsRegistry()
    with ParallelPlanExecutor(
        spn,
        n_workers=2,
        backend="native",
        min_rows_per_shard=256,
        metrics=metrics,
    ) as running:
        assert running.dispatch == "auto"
        assert running._pool is None  # no fork ever happened
        out = running.submit(data)
    assert metrics.value("executor.kernel_threads") >= 1
    assert metrics.value("executor.submits") == 1
    np.testing.assert_allclose(
        out, run_cpu_baseline(spn, data).results, rtol=1e-12, atol=1e-12
    )


def test_pool_dispatch_pins_worker_kernels(native_setup, monkeypatch):
    """``REPRO_NATIVE_THREADS`` must not nest: forked pool workers pin
    their kernel calls to one thread, and results stay exact."""
    spn, data = native_setup
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
    with ParallelPlanExecutor(
        spn, n_workers=2, backend="native", dispatch="pool",
        min_rows_per_shard=256,
    ) as running:
        out = running.submit(data)
    np.testing.assert_allclose(
        out, run_cpu_baseline(spn, data).results, rtol=1e-12, atol=1e-12
    )


def test_invalid_dispatch_rejected(setup):
    spn, _ = setup
    for dispatch in ("turbo", "threads"):
        with pytest.raises(ReproError, match="dispatch"):
            ParallelPlanExecutor(spn, n_workers=1, dispatch=dispatch)


# -- check_batch -------------------------------------------------------------


def test_check_batch_float64_passthrough():
    data = np.zeros((5, 3), dtype=np.float64)
    assert check_batch(data) is data


def test_check_batch_float32_no_copy():
    """A C-contiguous float32 batch must not be upcast to a copy."""
    data = np.zeros((5, 3), dtype=np.float32)
    assert check_batch(data, dtype=np.float32) is data


def test_check_batch_converts_when_needed():
    ints = np.zeros((5, 3), dtype=np.uint8)
    out = check_batch(ints)
    assert out.dtype == np.float64 and out.shape == (5, 3)
    fortran = np.asfortranarray(np.zeros((5, 3)))
    assert check_batch(fortran).flags.c_contiguous


def test_check_batch_rejects_bad_input():
    with pytest.raises(ReproError):
        check_batch(np.array([["a", "b"], ["c", "d"]]))
    with pytest.raises(ReproError):
        check_batch(np.zeros((0, 3)))
    with pytest.raises(ReproError):
        check_batch(np.zeros(7))
    with pytest.raises(ReproError):
        check_batch(np.zeros((5, 3)), dtype=np.int64)


# -- reentrant staging lanes (the serving zero-copy datapath) -----------------


def test_lane_submit_bit_identical_serial_and_pooled(setup):
    """Lane evaluation is pure transport: writing rows into the arena
    and submitting matches plan evaluation bit for bit, on both the
    in-process and the pooled executor."""
    spn, data = setup
    batch = data[:300]
    for n_workers in (1, 2):
        with ParallelPlanExecutor(
            spn, n_workers=n_workers, min_rows_per_shard=64
        ) as executor:
            reference = executor.submit(batch)
            lane = executor.acquire_lane(512)
            assert lane.capacity_rows >= 300
            lane.arena[: batch.shape[0]] = batch
            out = lane.submit(batch.shape[0])
            lane.release()
        assert np.array_equal(out, reference)


def test_lane_queries_marginal_and_missing(setup, executor):
    spn, data = setup
    batch = data[:50].copy()
    batch[batch == 3] = -1.0
    lane = executor.acquire_lane(64)
    lane.arena[:50] = batch
    out_marg = lane.submit(50, marginalized=(1, 5))
    reference = executor.submit(batch, marginalized=(1, 5))
    assert np.array_equal(out_marg, reference)
    lane.arena[:50] = batch
    out_miss = lane.submit(50, missing_value=-1.0)
    assert np.array_equal(out_miss, executor.submit(batch, missing_value=-1.0))
    lane.release()


def test_lanes_are_pooled_and_regrow(setup, executor):
    lane = executor.acquire_lane(16)
    first_id = lane.lane_id
    lane.release()
    regrown = executor.acquire_lane(1024)
    assert regrown.lane_id == first_id  # reused, not newly allocated
    assert regrown.capacity_rows >= 1024
    regrown.release()


def test_lane_exhaustion_and_misuse_raise(setup):
    spn, _ = setup
    with ParallelPlanExecutor(spn, n_workers=1, max_lanes=2) as executor:
        lanes = [executor.acquire_lane(8), executor.acquire_lane(8)]
        with pytest.raises(ReproError, match="lanes"):
            executor.acquire_lane(8)
        lane = lanes[0]
        lane.release()
        lane.release()  # idempotent
        with pytest.raises(ReproError, match="release"):
            lane.submit(1)
        with pytest.raises(ReproError, match="arena"):
            _ = lane.arena
        again = executor.acquire_lane(8)
        again.arena[0] = np.zeros(8)
        with pytest.raises(ReproError, match="rows"):
            again.submit(9)
        with pytest.raises(ReproError, match="capacity_rows"):
            executor.acquire_lane(0)
    with pytest.raises(ReproError, match="close"):
        executor.acquire_lane(8)


def test_lane_release_after_close_is_safe(setup):
    spn, data = setup
    executor = ParallelPlanExecutor(spn, n_workers=2)
    lane = executor.acquire_lane(32)
    lane.arena[:4] = data[:4]
    executor.close()
    lane.release()  # no-op, no resurrection of freed segments
    with pytest.raises(ReproError, match="close"):
        lane.submit(4)


def test_concurrent_lane_submits_are_consistent(setup):
    """Reentrancy: two threads hammering two lanes of one executor
    never cross results — each lane's answers match its own rows."""
    import threading

    spn, data = setup
    errors = []
    with ParallelPlanExecutor(spn, n_workers=2, min_rows_per_shard=64) as ex:
        reference_a = ex.submit(data[:256])
        reference_b = ex.submit(data[256:512])

        def worker(rows, reference):
            try:
                lane = ex.acquire_lane(256)
                for _ in range(5):
                    lane.arena[:256] = rows
                    out = lane.submit(256)
                    if not np.array_equal(out, reference):
                        errors.append("lane result mismatch")
                lane.release()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(data[:256], reference_a)),
            threading.Thread(target=worker, args=(data[256:512], reference_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert errors == []


# -- fault paths: each has exactly one copy in the executor ---------------------


def _own_segments():
    """This process's executor segments currently in ``/dev/shm``."""
    prefix = f"repro-ppe-{os.getpid()}-"
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


@pytest.fixture
def pooled(setup):
    """A 2-worker, 2-lane pooled executor, and the segments that
    existed before it; skipped where no pool can be spawned."""
    spn, _ = setup
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    before = _own_segments()
    running = ParallelPlanExecutor(
        spn, n_workers=2, min_rows_per_shard=64, max_lanes=2
    )
    if running.n_workers == 1:
        running.close()
        pytest.skip("process pool unavailable in this sandbox")
    yield running, before
    running.close()


def test_failed_lane_backing_does_not_leak_the_lane(setup, pooled, monkeypatch):
    """Regression: a lane whose segment allocation failed was popped
    from the free list and never given back, so ``max_lanes`` transient
    ENOSPCs left the executor refusing every acquire forever."""
    spn, data = setup
    running, before = pooled

    def boom(n_bytes):
        raise OSError("injected: /dev/shm full")

    monkeypatch.setattr(running, "_new_segment", boom)
    for _ in range(running._max_lanes + 1):
        with pytest.raises(OSError, match="injected"):
            running.acquire_lane(64)
    monkeypatch.undo()
    reference = run_cpu_baseline(spn, data[:512]).results
    lane = running.acquire_lane(512)
    lane.arena[:512] = data[:512]
    assert np.array_equal(lane.submit(512), reference)
    lane.release()
    assert np.array_equal(running.submit(data[:512]), reference)
    running.close()
    assert _own_segments() == before


@pytest.mark.parametrize("via", ["submit", "lane"])
def test_killed_worker_degrades_to_in_process(setup, pooled, via):
    """A SIGKILLed pool worker costs the pool, not the batch: the batch
    in hand is finished in-process, bit-identical, and the executor
    keeps serving with ``n_workers == 1``."""
    import signal

    spn, data = setup
    running, before = pooled
    reference = run_cpu_baseline(spn, data).results
    assert np.array_equal(running.submit(data), reference)  # pool is live
    lane = running.acquire_lane(1024)
    lane.arena[:1024] = data[:1024]
    victim = next(iter(running._pool._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    if via == "submit":
        assert np.array_equal(running.submit(data), reference)
    else:
        assert np.array_equal(lane.submit(1024), reference[:1024])
    assert running.n_workers == 1
    assert running._pool is None
    # Later batches keep working, on either entry point.
    assert np.array_equal(lane.submit(1024), reference[:1024])
    lane.release()
    assert np.array_equal(running.submit(data[:700]), reference[:700])
    running.close()
    assert _own_segments() == before


def test_pooled_submit_with_every_lane_out_raises(setup, pooled):
    """submit() rides a lane, so it shares acquire_lane's bound — and a
    refused submit must not leave a segment behind."""
    spn, data = setup
    running, before = pooled
    lanes = [running.acquire_lane(8) for _ in range(running._max_lanes)]
    held = _own_segments()
    with pytest.raises(ReproError, match="lanes are checked out"):
        running.submit(data[:512])
    assert _own_segments() == held
    lanes[0].release()
    assert np.array_equal(
        running.submit(data[:512]), run_cpu_baseline(spn, data[:512]).results
    )
    running.close()
    assert _own_segments() == before


def test_concurrent_pooled_submits_are_consistent(setup, pooled):
    """Two threads calling submit() on one pooled executor overlap on
    their own lanes and never cross results."""
    import threading

    spn, data = setup
    running, _ = pooled
    batches = [data[:1500], data[1500:3500]]
    references = [run_cpu_baseline(spn, b).results for b in batches]
    errors = []

    def worker(batch, reference):
        try:
            for _ in range(5):
                if not np.array_equal(running.submit(batch), reference):
                    errors.append("submit result mismatch")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=pair)
        for pair in zip(batches, references)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# -- completion-order shard accounting (span attribution) ---------------------


class _Recorder:
    def __init__(self):
        self.spans = []

    def record(self, track, label, begin, end):
        self.spans.append((track, label, begin, end))


def test_span_attribution_follows_completion_order(setup):
    """Regression for the pool.map head-of-line block: a slow shard 0
    must not delay the attribution of shards that finished first —
    _account_shards folds stamps in the order they complete."""
    spn, _ = setup
    recorder = _Recorder()
    metrics = MetricsRegistry()
    with ParallelPlanExecutor(
        spn, n_workers=1, metrics=metrics, host_tracer=recorder
    ) as executor:
        # Completion order: shard2 (fast), shard1, then the slow shard0.
        completed = iter(
            [
                ("shard2", (111, 10.0, 10.5)),
                ("shard1", (222, 10.0, 11.0)),
                ("shard0", (111, 10.0, 14.0)),
            ]
        )
        busy = executor._account_shards(completed)
    assert [label for (_, label, _, _) in recorder.spans] == [
        "shard2", "shard1", "shard0"
    ]
    assert busy == {111: pytest.approx(4.5), 222: pytest.approx(1.0)}
    # Worker slots assigned in first-seen (completion) order.
    assert [track for (track, _, _, _) in recorder.spans] == [
        "executor worker0", "executor worker1", "executor worker0"
    ]


def test_pooled_submit_records_one_span_per_shard(setup):
    spn, data = setup
    recorder = _Recorder()
    with ParallelPlanExecutor(
        spn, n_workers=2, min_rows_per_shard=64, host_tracer=recorder
    ) as executor:
        if executor.n_workers == 1:
            pytest.skip("process pool unavailable in this sandbox")
        executor.submit(data[:512], n_shards=4)
    labels = sorted(label for (_, label, _, _) in recorder.spans)
    assert labels == ["shard0", "shard1", "shard2", "shard3"]

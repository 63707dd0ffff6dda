"""Tests for the micro-batching serving broker.

The broker's contract has three legs: *coalescing* (requests group
into batches on the max_batch_rows / max_wait_ms boundary, per query
signature), *admission control* (the bounded queue sheds with
:class:`ServingOverloadError` instead of growing latency without
bound), and *transparency* (results bit-identical to calling the plan
evaluator directly — the broker is transport, never arithmetic).
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.baselines.executor import ParallelPlanExecutor
from repro.compiler.native_build import compiler_command, get_native_kernel
from repro.errors import ReproError, ServingError, ServingOverloadError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import SpanRecorder
from repro.serving.broker import MicroBatchBroker
from repro.spn import nips_benchmark, random_spn
from repro.spn.plan import get_plan
from repro.spn.plan_eval import plan_log_likelihood


class FakeEngine:
    """Deterministic engine stub recording every batch it receives."""

    def __init__(self, n_variables=3, delay_s=0.0):
        self.n_variables = n_variables
        self.delay_s = delay_s
        self.calls = []

    def submit(self, data, *, marginalized=None, missing_value=None):
        self.calls.append((data.shape[0], marginalized, missing_value))
        if self.delay_s:
            time.sleep(self.delay_s)
        return data[:, 0].astype(np.float64) * 10.0


class GatedEngine(FakeEngine):
    """Engine whose calls block until the test lets them through with
    :meth:`open`: whatever is in flight stays in flight, so arena
    occupancy is the test's to choose.  Records each batch's signature
    and first column."""

    def __init__(self, n_variables=3):
        super().__init__(n_variables=n_variables)
        self._gate = threading.Semaphore(0)
        self.batches = []

    def open(self, calls=1000):
        """Let *calls* engine calls through (default: all of them)."""
        self._gate.release(calls)

    def submit(self, data, *, marginalized=None, missing_value=None):
        assert self._gate.acquire(timeout=30), "test never opened the gate"
        self.batches.append(
            ((marginalized, missing_value), data[:, 0].tolist())
        )
        return super().submit(
            data, marginalized=marginalized, missing_value=missing_value
        )


def run(coro):
    return asyncio.run(coro)


def rows(n, n_variables=3, base=0.0):
    return [np.full(n_variables, base + i, dtype=np.float64) for i in range(n)]


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=20.0
            ) as broker:
                assert not broker.zero_copy  # a lane-less engine
                return await asyncio.gather(
                    *(broker.submit(row) for row in rows(8))
                )

        results = run(scenario())
        assert [call[0] for call in engine.calls] == [8]
        assert results == [i * 10.0 for i in range(8)]

    def test_full_batch_flushes_before_the_wait_timer(self):
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=4, max_wait_ms=10_000.0
            ) as broker:
                start = time.perf_counter()
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))
                elapsed = time.perf_counter() - start
                assert broker.stats.flush_full == 2
                return elapsed

        elapsed = run(scenario())
        # With a 10 s wait window, only the size trigger can explain
        # the batches returning promptly.
        assert elapsed < 5.0
        assert [call[0] for call in engine.calls] == [4, 4]

    def test_max_wait_boundary_flushes_a_partial_batch(self):
        engine = FakeEngine()
        wait_ms = 60.0

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=1000, max_wait_ms=wait_ms
            ) as broker:
                start = time.perf_counter()
                await broker.submit(np.zeros(3))
                elapsed = time.perf_counter() - start
                assert broker.stats.flush_wait == 1
                assert broker.stats.flush_full == 0
                return elapsed

        elapsed = run(scenario())
        # The lone request cannot fill the batch: it must be answered
        # by the timer, i.e. no earlier than the wait window.
        assert elapsed >= wait_ms / 1e3 * 0.8
        assert engine.calls == [(1, None, None)]

    def test_slow_kernel_grows_the_next_batch(self):
        """While a batch computes, arrivals coalesce into the next one
        — the SLO-respecting flush still happens per window, but the
        dispatch queue is where adaptive batching comes from."""
        engine = FakeEngine(delay_s=0.08)

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=5.0
            ) as broker:
                first = asyncio.ensure_future(broker.submit(np.zeros(3)))
                await asyncio.sleep(0.03)  # first batch is now computing
                rest = [broker.submit(row) for row in rows(5, base=1.0)]
                await asyncio.gather(first, *rest)

        run(scenario())
        assert engine.calls[0][0] == 1
        assert len(engine.calls) == 2
        assert engine.calls[1][0] == 5

    def test_query_signatures_never_mix(self):
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=10.0
            ) as broker:
                await asyncio.gather(
                    broker.submit(np.zeros(3)),
                    broker.submit(np.zeros(3), marginalized=[1]),
                    broker.submit(np.zeros(3), missing_value=-1.0),
                    broker.submit(np.zeros(3), marginalized=[1]),
                )

        run(scenario())
        batches = sorted(engine.calls, key=repr)
        assert batches == [
            (1, None, -1.0),
            (1, None, None),
            (2, (1,), None),
        ]


    def test_equal_marginalized_sets_share_a_signature(self):
        """Order and repeats do not make a different query."""
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=10.0
            ) as broker:
                await asyncio.gather(
                    broker.submit(np.zeros(3), marginalized=[1]),
                    broker.submit(np.zeros(3), marginalized=[1, 1]),
                    broker.submit(np.zeros(3), marginalized=[2, 1]),
                    broker.submit(np.zeros(3), marginalized=(1, 2, 2, 1)),
                )

        run(scenario())
        assert sorted(engine.calls) == [(2, (1,), None), (2, (1, 2), None)]


class TestAdmissionControl:
    def test_overload_sheds_and_recovers(self):
        engine = FakeEngine(delay_s=0.1)
        metrics = MetricsRegistry()

        async def scenario():
            async with MicroBatchBroker(
                engine,
                max_batch_rows=4,
                max_wait_ms=5.0,
                max_queue_rows=4,
                metrics=metrics,
            ) as broker:
                # Fill the queue exactly: one full batch dispatches and
                # occupies the dispatch thread for 100 ms.
                admitted = [
                    asyncio.ensure_future(broker.submit(row))
                    for row in rows(4)
                ]
                await asyncio.sleep(0.02)
                with pytest.raises(ServingOverloadError, match="shed"):
                    await broker.submit(np.zeros(3))
                assert broker.stats.rejected == 1
                await asyncio.gather(*admitted)
                # The queue drained: the broker accepts again.
                await broker.submit(np.ones(3))

        run(scenario())
        assert metrics.counter("serving.rejected").value == 1
        assert metrics.counter("serving.requests").value == 6
        assert metrics.maximum("serving.queue_rows") == 4

    def test_queue_smaller_than_a_batch_is_rejected(self):
        with pytest.raises(ServingError, match="max_queue_rows"):
            MicroBatchBroker(FakeEngine(), max_batch_rows=64, max_queue_rows=8)


class TestTransparency:
    """Broker answers == direct plan evaluation, bit for bit."""

    @pytest.fixture(scope="class")
    def spn_setup(self):
        spn = random_spn(5, depth=3, n_bins=6, seed=17)
        rng = np.random.default_rng(17)
        data = rng.integers(0, 6, size=(41, 5)).astype(np.float64)
        return spn, data

    @pytest.mark.parametrize(
        "query",
        [
            {},
            {"marginalized": (0, 3)},
            {"missing_value": 2.0},
        ],
        ids=["likelihood", "marginal", "missing"],
    )
    def test_bit_identical_across_batch_seams(self, spn_setup, query):
        spn, data = spn_setup
        reference = plan_log_likelihood(get_plan(spn), data, **query)

        async def scenario():
            with ParallelPlanExecutor(spn, n_workers=1) as executor:
                # max_batch_rows=7 forces seams at every 7th request —
                # no batching split may change any row's arithmetic.
                async with MicroBatchBroker(
                    executor, max_batch_rows=7, max_wait_ms=10.0
                ) as broker:
                    results = await asyncio.gather(
                        *(broker.submit(row, **query) for row in data)
                    )
                    # One lane, two arenas: only the first 14 rows found
                    # one free, the other 27 went through the parked deque.
                    assert broker.stats.arena_waits == data.shape[0] - 14
                    return results

        results = run(scenario())
        assert np.array_equal(np.array(results), reference)
        assert len(results) == data.shape[0]

    @pytest.mark.skipif(
        compiler_command() is None, reason="no C compiler on this host"
    )
    @pytest.mark.parametrize(
        "query",
        [{}, {"marginalized": (0, 3)}, {"missing_value": 255.0}],
        ids=["likelihood", "marginal", "missing"],
    )
    def test_native_answers_bit_identical_to_a_direct_kernel_call(
        self, query, tmp_path, monkeypatch
    ):
        """The micro-batcher moves rows to arbitrary batch positions; the
        native kernel's answer for a row must not depend on where it
        sits (codegen v2's vector remainder made it, in the last bit)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spn = nips_benchmark("NIPS10").spn
        rng = np.random.default_rng(7)
        data = rng.integers(0, 60, size=(4096, 10)).astype(np.float64)
        data[rng.random(data.shape) < 0.1] = 255.0
        kernel = get_native_kernel(get_plan(spn), np.float64, require=True)
        reference = kernel.log_likelihood(data, **query)

        async def scenario():
            # 7-row batches: short enough that codegen v2 ran them
            # through its scalar remainder, not the vector loop.
            async with MicroBatchBroker(
                executor, max_batch_rows=7, max_wait_ms=5.0
            ) as broker:
                return await asyncio.gather(
                    *(broker.submit(row, **query) for row in data)
                )

        with ParallelPlanExecutor(
            spn, n_workers=1, backend="native"
        ) as executor:
            results = run(scenario())
        assert np.array_equal(np.array(results), reference)


class TestLifecycle:
    def test_close_flushes_pending_requests(self):
        engine = FakeEngine()

        async def scenario():
            broker = MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=10_000.0
            )
            pending = [
                asyncio.ensure_future(broker.submit(row)) for row in rows(3)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await broker.close()
            return await asyncio.gather(*pending)

        results = run(scenario())
        assert results == [0.0, 10.0, 20.0]

    def test_close_without_flush_rejects_pending_cleanly(self):
        engine = FakeEngine()

        async def scenario():
            broker = MicroBatchBroker(
                engine, max_batch_rows=100, max_wait_ms=10_000.0
            )
            pending = [
                asyncio.ensure_future(broker.submit(row)) for row in rows(3)
            ]
            await asyncio.sleep(0)
            await broker.close(flush=False)
            return await asyncio.gather(*pending, return_exceptions=True)

        results = run(scenario())
        assert all(isinstance(r, ServingOverloadError) for r in results)
        assert engine.calls == []

    @pytest.mark.parametrize("flush", [True, False], ids=["flush", "no_flush"])
    def test_close_sheds_rows_parked_for_an_arena(self, flush):
        """Parked rows hold no arena slot: close() sheds every one of
        them, counted, whether or not it flushes the pending batches."""
        engine = GatedEngine()
        metrics = MetricsRegistry()

        async def scenario():
            broker = MicroBatchBroker(
                engine, max_batch_rows=4, max_wait_ms=10_000.0, n_lanes=1,
                metrics=metrics,
            )
            # A 2-arena ring: one full batch in flight (blocked), one
            # partial batch pending, a second signature parked behind.
            inflight = [
                asyncio.ensure_future(broker.submit(row)) for row in rows(4)
            ]
            pending = [
                asyncio.ensure_future(broker.submit(row))
                for row in rows(2, base=4.0)
            ]
            parked = [
                asyncio.ensure_future(broker.submit(row, marginalized=[1]))
                for row in rows(3, base=6.0)
            ]
            await asyncio.sleep(0.01)
            assert broker.stats.arena_waits == 3
            assert broker.queued_rows == 9
            asyncio.get_running_loop().call_later(0.05, engine.open)
            await asyncio.wait_for(broker.close(flush=flush), timeout=30)
            assert broker.queued_rows == 0
            assert all(t.done() for t in inflight + pending + parked)
            return (
                await asyncio.gather(*inflight),
                await asyncio.gather(*pending, return_exceptions=True),
                await asyncio.gather(*parked, return_exceptions=True),
                broker.stats.rejected,
            )

        answered, pending, parked, rejected = run(scenario())
        assert answered == [0.0, 10.0, 20.0, 30.0]
        assert all(isinstance(r, ServingOverloadError) for r in parked)
        if flush:
            assert pending == [40.0, 50.0]
            assert [size for size, _, _ in engine.calls] == [4, 2]
        else:
            assert all(isinstance(r, ServingOverloadError) for r in pending)
            assert [size for size, _, _ in engine.calls] == [4]
        shed = 3 if flush else 5
        assert rejected == shed
        assert metrics.counter("serving.rejected").value == shed
        assert metrics.histogram("serving.shed").count == shed
        assert metrics.value("serving.queue_rows") == 0

    def test_submit_after_close_raises_serving_error(self):
        async def scenario():
            broker = MicroBatchBroker(FakeEngine())
            await broker.close()
            await broker.close()  # idempotent
            with pytest.raises(ServingError, match="close"):
                await broker.submit(np.zeros(3))

        run(scenario())

    def test_closed_executor_surfaces_repro_error_not_traceback(self):
        """The broker's shutdown-ordering bug class: an engine closed
        under a live broker must answer requests with a ReproError
        naming close(), never an AttributeError/broken pipe."""
        spn = random_spn(4, depth=2, n_bins=4, seed=3)

        async def scenario():
            executor = ParallelPlanExecutor(spn, n_workers=1)
            executor.close()
            async with MicroBatchBroker(
                executor, max_wait_ms=1.0
            ) as broker:
                with pytest.raises(ReproError, match="close"):
                    await broker.submit(np.zeros(4))

        run(scenario())

    def test_engine_failures_reject_only_that_batch(self):
        class FlakyEngine(FakeEngine):
            def submit(self, data, **kwargs):
                if len(self.calls) == 0:
                    self.calls.append(None)
                    raise ReproError("injected engine failure")
                return super().submit(data, **kwargs)

        engine = FlakyEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=2, max_wait_ms=5.0
            ) as broker:
                with pytest.raises(ReproError, match="injected"):
                    await asyncio.gather(
                        broker.submit(np.zeros(3)), broker.submit(np.ones(3))
                    )
                # The broker survives: the next batch is served.
                assert await broker.submit(np.full(3, 2.0)) == 20.0
                assert broker.queued_rows == 0

        run(scenario())


class TestCancellation:
    """A caller that stops waiting takes only its own request with it."""

    def test_cancel_while_parked_skips_the_row(self):
        engine = GatedEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=4, max_wait_ms=5.0, n_lanes=1
            ) as broker:
                # Rows 0-7 take both arenas (blocked); rows 8-11 park.
                tasks = [
                    asyncio.ensure_future(broker.submit(row))
                    for row in rows(12)
                ]
                await asyncio.sleep(0.01)
                assert broker.stats.arena_waits == 4
                tasks[9].cancel()
                engine.open()
                results = await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), timeout=30
                )
                assert broker.queued_rows == 0
                return results

        results = run(scenario())
        assert isinstance(results[9], asyncio.CancelledError)
        assert [r for i, r in enumerate(results) if i != 9] == [
            i * 10.0 for i in range(12) if i != 9
        ]
        # The cancelled row never reached an arena slot.
        assert engine.batches[-1] == ((None, None), [8.0, 10.0, 11.0])

    def test_cancel_in_a_pending_batch_does_not_poison_it(self):
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=4, max_wait_ms=20.0
            ) as broker:
                tasks = [
                    asyncio.ensure_future(broker.submit(row))
                    for row in rows(3)
                ]
                await asyncio.sleep(0)  # all three are in the batch
                tasks[1].cancel()
                results = await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), timeout=30
                )
                # The slot came back when the batch finished, and the
                # broker serves on.
                assert broker.queued_rows == 0
                assert await broker.submit(np.full(3, 7.0)) == 70.0
                assert broker.queued_rows == 0
                return results

        results = run(scenario())
        assert results[0] == 0.0 and results[2] == 20.0
        assert isinstance(results[1], asyncio.CancelledError)
        assert [size for size, _, _ in engine.calls] == [3, 1]


class BlockingEngine(FakeEngine):
    """Lane-less engine whose submit blocks off-GIL, like a device
    round-trip: overlap across dispatch lanes is observable as wall
    time < serialized service time."""

    def __init__(self, n_variables=3, delay_s=0.05):
        super().__init__(n_variables=n_variables, delay_s=delay_s)


class TestPipelinedDatapath:
    """The PR 9 contract: write-once arenas evaluated in place on the
    lane path, and n_lanes batches genuinely in flight at once."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_zero_copy_over_executor_lanes(self, n_workers):
        """Executor-backed serving stages zero bytes: rows are written
        once into the lane arena the kernel evaluates in place.  With
        two workers the plan-backed executor dispatches every batch
        through the shared-memory pool lanes, and the answers stay
        bit-identical there too."""
        spn = random_spn(5, depth=3, n_bins=6, seed=17)
        rng = np.random.default_rng(23)
        data = rng.integers(0, 6, size=(41, 5)).astype(np.float64)
        reference = plan_log_likelihood(get_plan(spn), data)
        metrics = MetricsRegistry()

        async def scenario():
            async with MicroBatchBroker(
                executor,
                max_batch_rows=7,
                max_wait_ms=10.0,
                n_lanes=2,
                metrics=metrics,
            ) as broker:
                assert broker.zero_copy
                return await asyncio.gather(
                    *(broker.submit(row) for row in data)
                )

        with ParallelPlanExecutor(
            spn, n_workers=n_workers, metrics=metrics
        ) as executor:
            results = run(scenario())
        assert np.array_equal(np.array(results), reference)
        # Broker and executor count the same batches into one registry:
        # no update lost across the two dispatch threads, none twice.
        assert metrics.value("serving.requests") == 41
        assert metrics.value("serving.rows") == 41
        assert metrics.value("executor.rows") == 41
        assert metrics.value("serving.batches") == metrics.value(
            "executor.submits"
        )

    def test_n_lanes_overlap_in_flight_batches(self):
        """Two full batches against a 50 ms blocking engine finish in
        ~one service time with n_lanes=2 — they ran concurrently."""
        engine = BlockingEngine(delay_s=0.05)

        async def scenario(n_lanes):
            async with MicroBatchBroker(
                engine, max_batch_rows=4, max_wait_ms=50.0, n_lanes=n_lanes
            ) as broker:
                t0 = time.perf_counter()
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))
                return time.perf_counter() - t0

        elapsed = run(scenario(2))
        # Serialized: >= 100 ms.  Pipelined: ~50 ms + overhead.
        assert elapsed < 0.09, f"batches did not overlap: {elapsed:.3f}s"

    def test_arena_backpressure_waits_then_serves(self):
        """When the whole ring is busy, admitted requests wait for an
        arena (counted) instead of allocating — and all get answered."""
        engine = FakeEngine(delay_s=0.02)
        metrics = MetricsRegistry()

        async def scenario():
            async with MicroBatchBroker(
                engine,
                max_batch_rows=4,
                max_wait_ms=2.0,
                max_queue_rows=1000,
                n_lanes=1,
                metrics=metrics,
            ) as broker:
                # 3 arenas' worth in one burst against a 2-arena ring.
                results = await asyncio.gather(
                    *(broker.submit(row) for row in rows(12))
                )
                # 8 rows fill the ring; the other 4 park, counted once
                # each however many releases pass before they are placed.
                assert broker.stats.arena_waits == 4
                return results

        results = run(scenario())
        assert results == [i * 10.0 for i in range(12)]
        assert metrics.counter("serving.arena_waits").value == 4
        assert metrics.counter("serving.rejected").value == 0

    def test_parked_rows_are_placed_in_arrival_order(self):
        """Three signatures over a 2-arena ring: parked rows take the
        released arenas first come first served, and a request whose
        signature has a pending batch joins it without parking."""
        engine = GatedEngine()
        a, b, c = {}, {"marginalized": [0]}, {"missing_value": -1.0}
        arrivals = [a, a, b, c, a, b, c, a]

        async def scenario():
            async with MicroBatchBroker(
                engine, max_batch_rows=2, max_wait_ms=10_000.0, n_lanes=1
            ) as broker:
                tasks = [
                    asyncio.ensure_future(broker.submit(row, **query))
                    for row, query in zip(rows(8), arrivals)
                ]
                await asyncio.sleep(0.01)
                # Rows 0,1 (a) are in flight and row 2 (b) opened the
                # second arena; rows 3,4 park; row 5 (b) joins row 2's
                # batch; rows 6,7 park.
                assert broker.stats.arena_waits == 4
                # One release at a time: the first goes to row 3 (c),
                # the head of the deque, and row 4 (a) keeps its place
                # for the second; rows 6 and 7 then follow in order,
                # filling c's batch before a's.
                engine.open(calls=1)
                await asyncio.wait_for(tasks[0], timeout=30)
                await asyncio.sleep(0.01)
                engine.open()
                return await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=30
                )

        results = run(scenario())
        assert results == [i * 10.0 for i in range(8)]
        key_a, key_b, key_c = (None, None), ((0,), None), (None, -1.0)
        assert engine.batches == [
            (key_a, [0.0, 1.0]),
            (key_b, [2.0, 5.0]),
            (key_c, [3.0, 6.0]),
            (key_a, [4.0, 7.0]),
        ]

    @pytest.mark.parametrize(
        "query",
        [
            {},
            {"marginalized": (0, 3)},
            {"missing_value": 2.0},
        ],
        ids=["likelihood", "marginal", "missing"],
    )
    def test_bit_identical_across_lanes_and_seams(self, query):
        """Acceptance criterion: 3 lanes, 7-row seams, every query
        type — answers identical to plan_eval however batches land."""
        spn = random_spn(5, depth=3, n_bins=6, seed=29)
        rng = np.random.default_rng(31)
        data = rng.integers(0, 6, size=(53, 5)).astype(np.float64)
        reference = plan_log_likelihood(get_plan(spn), data, **query)

        async def scenario():
            async with MicroBatchBroker(
                executor, max_batch_rows=7, max_wait_ms=5.0, n_lanes=3
            ) as broker:
                return await asyncio.gather(
                    *(broker.submit(row, **query) for row in data)
                )

        with ParallelPlanExecutor(spn, n_workers=1, max_lanes=4) as executor:
            results = run(scenario())
        assert np.array_equal(np.array(results), reference)


class TestValidationAndObservability:
    def test_row_validation(self):
        async def scenario():
            async with MicroBatchBroker(FakeEngine()) as broker:
                with pytest.raises(ServingError, match="shape"):
                    await broker.submit(np.zeros(5))
                with pytest.raises(ServingError, match="numeric"):
                    await broker.submit(["a", "b", "c"])

        run(scenario())

    def test_engine_without_width_needs_explicit_n_variables(self):
        with pytest.raises(ServingError, match="n_variables"):
            MicroBatchBroker(object())

    def test_metrics_and_batch_spans(self):
        metrics = MetricsRegistry()
        recorder = SpanRecorder()
        engine = FakeEngine()

        async def scenario():
            async with MicroBatchBroker(
                engine,
                max_batch_rows=4,
                max_wait_ms=5.0,
                metrics=metrics,
                host_tracer=recorder,
            ) as broker:
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))

        run(scenario())
        assert metrics.counter("serving.requests").value == 8
        assert metrics.counter("serving.rows").value == 8
        assert metrics.counter("serving.batches").value == 2
        assert metrics.counter("serving.flush_full").value == 2
        assert metrics.counter("serving.batch_seconds").value > 0
        spans = [
            s for s in recorder.spans if s.track.startswith("serving lane")
        ]
        assert len(spans) == 2
        assert all(s.label.startswith("batch") for s in spans)
        assert all("4r" in s.label for s in spans)
        assert metrics.maximum("serving.arenas_busy") >= 1


class TestRequestTracing:
    """Per-request stage histograms and sampled trace completion."""

    def test_stage_histograms_weigh_every_answered_request(self):
        from repro.obs.rtrace import STAGE_HISTOGRAMS

        metrics = MetricsRegistry()

        async def scenario():
            async with MicroBatchBroker(
                FakeEngine(), max_batch_rows=4, max_wait_ms=5.0,
                metrics=metrics,
            ) as broker:
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))

        run(scenario())
        e2e = metrics.histogram("serving.e2e")
        assert e2e.count == 8
        for name, _, _ in STAGE_HISTOGRAMS:
            hist = metrics.histogram(f"serving.{name}")
            assert hist.count == 8, f"serving.{name} missed requests"
        # The five stages partition the path: their means sum to the
        # end-to-end mean (batch-wide stages weigh each request once).
        stage_mean = sum(
            metrics.histogram(f"serving.{name}").mean
            for name, _, _ in STAGE_HISTOGRAMS
        )
        assert stage_mean == pytest.approx(e2e.mean, rel=0.05)

    def test_stage_medians_sum_to_the_e2e_median(self):
        """One batch, so the four batch-wide stages are one weighted
        record each: their medians plus batch_form's must land on the
        e2e median (within two 4.5 % buckets)."""
        from repro.obs.rtrace import STAGE_HISTOGRAMS

        metrics = MetricsRegistry()

        async def scenario():
            async with MicroBatchBroker(
                FakeEngine(delay_s=0.02), max_batch_rows=8, max_wait_ms=5.0,
                metrics=metrics,
            ) as broker:
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))

        run(scenario())
        stages = [
            metrics.histogram(f"serving.{name}") for name, _, _ in STAGE_HISTOGRAMS
        ]
        assert [hist.count for hist in stages] == [8] * len(stages)
        assert metrics.histogram("serving.kernel").min >= 0.02
        assert sum(hist.p50 for hist in stages) == pytest.approx(
            metrics.histogram("serving.e2e").p50, rel=0.10
        )

    def test_sheds_record_latency_and_mark_traces(self):
        from repro.obs.rtrace import RequestTraceRecorder

        metrics = MetricsRegistry()
        rtrace = RequestTraceRecorder(sample_every=1)

        async def scenario():
            async with MicroBatchBroker(
                FakeEngine(delay_s=0.1),
                max_batch_rows=4,
                max_wait_ms=5.0,
                max_queue_rows=4,
                metrics=metrics,
                rtrace=rtrace,
            ) as broker:
                admitted = [
                    asyncio.ensure_future(broker.submit(row))
                    for row in rows(4)
                ]
                await asyncio.sleep(0.02)
                with pytest.raises(ServingOverloadError):
                    await broker.submit(np.zeros(3))
                await asyncio.gather(*admitted)

        run(scenario())
        assert metrics.histogram("serving.shed").count == 1
        shed_traces = [t for t in rtrace.traces if t.shed]
        assert len(shed_traces) == 1
        assert shed_traces[0].complete is not None

    def test_sampled_traces_complete_with_lane_and_batch(self):
        from repro.obs.rtrace import RequestTraceRecorder

        rtrace = RequestTraceRecorder(sample_every=1)

        async def scenario():
            async with MicroBatchBroker(
                FakeEngine(), max_batch_rows=4, max_wait_ms=5.0,
                rtrace=rtrace,
            ) as broker:
                await asyncio.gather(*(broker.submit(row) for row in rows(8)))

        run(scenario())
        completed = rtrace.completed()
        assert len(completed) == 8
        for trace in completed:
            assert trace.lane is not None
            assert trace.batch_id is not None
            stages = trace.stage_seconds()
            assert sum(stages.values()) == pytest.approx(
                trace.complete - trace.enqueue, abs=1e-9
            )

    def test_sampling_cadence_respected_under_load(self):
        from repro.obs.rtrace import RequestTraceRecorder

        rtrace = RequestTraceRecorder(sample_every=4)

        async def scenario():
            async with MicroBatchBroker(
                FakeEngine(), max_batch_rows=4, max_wait_ms=5.0,
                rtrace=rtrace,
            ) as broker:
                await asyncio.gather(*(broker.submit(row) for row in rows(16)))

        run(scenario())
        assert rtrace.seen == 16
        assert rtrace.sampled == 4
        assert len(rtrace.completed()) == 4

    def test_results_bit_identical_with_tracing_on_and_off(self):
        from repro.obs.rtrace import RequestTraceRecorder

        data = rows(8, base=3.0)

        async def scenario(**obs_kwargs):
            async with MicroBatchBroker(
                FakeEngine(), max_batch_rows=4, max_wait_ms=5.0, **obs_kwargs
            ) as broker:
                return await asyncio.gather(
                    *(broker.submit(row) for row in data)
                )

        bare = run(scenario())
        traced = run(
            scenario(
                metrics=MetricsRegistry(),
                rtrace=RequestTraceRecorder(sample_every=1),
            )
        )
        assert [v.tobytes() for v in np.asarray(bare, dtype=np.float64)] == [
            v.tobytes() for v in np.asarray(traced, dtype=np.float64)
        ]

"""Unit tests for SimResource and TokenBucket."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, SimResource, TokenBucket
from repro.sim.engine import Event


def test_resource_serialises_exclusive_access():
    eng = Engine()
    res = SimResource(eng, capacity=1)
    trace = []

    def worker(env, tag):
        grant = res.request()
        yield grant
        trace.append((tag, "start", env.now))
        yield env.timeout(5.0)
        trace.append((tag, "end", env.now))
        res.release()

    eng.process(worker(eng, "a"))
    eng.process(worker(eng, "b"))
    eng.run()
    assert trace == [
        ("a", "start", 0.0),
        ("a", "end", 5.0),
        ("b", "start", 5.0),
        ("b", "end", 10.0),
    ]


def test_resource_capacity_allows_parallelism():
    eng = Engine()
    res = SimResource(eng, capacity=2)
    starts = []

    def worker(env, tag):
        yield res.request()
        starts.append((tag, env.now))
        yield env.timeout(5.0)
        res.release()

    for tag in range(3):
        eng.process(worker(eng, tag))
    eng.run()
    assert starts == [(0, 0.0), (1, 0.0), (2, 5.0)]


def test_release_without_request_rejected():
    eng = Engine()
    res = SimResource(eng)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_queue_length_visible():
    eng = Engine()
    res = SimResource(eng, capacity=1)
    observed = []

    def holder(env):
        yield res.request()
        yield env.timeout(10.0)
        res.release()

    def contender(env):
        grant = res.request()
        yield grant
        res.release()

    def observer(env):
        yield env.timeout(1.0)
        observed.append((res.in_use, res.queue_length))

    eng.process(holder(eng))
    eng.process(contender(eng))
    eng.process(observer(eng))
    eng.run()
    assert observed == [(1, 1)]


def test_invalid_capacity_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        SimResource(eng, capacity=0)


class TestTokenBucket:
    def test_burst_consumed_instantly(self):
        eng = Engine()
        bucket = TokenBucket(eng, rate=100.0, burst=50.0)
        times = []

        def proc(env):
            yield bucket.consume(50.0)
            times.append(env.now)

        eng.process(proc(eng))
        eng.run()
        assert times == [0.0]

    def test_sustained_rate_enforced(self):
        eng = Engine()
        bucket = TokenBucket(eng, rate=100.0, burst=1.0)
        times = []

        def proc(env):
            # 1000 bytes at 100 B/s with ~no burst: ~10 seconds.
            yield bucket.consume(1000.0)
            times.append(env.now)

        eng.process(proc(eng))
        eng.run()
        assert times[0] == pytest.approx(10.0, rel=0.01)

    def test_fifo_arbitration_between_consumers(self):
        eng = Engine()
        bucket = TokenBucket(eng, rate=10.0, burst=1e-9)
        done = []

        def proc(env, tag, amount):
            yield bucket.consume(amount)
            done.append((tag, env.now))

        eng.process(proc(eng, "big", 100.0))
        eng.process(proc(eng, "small", 10.0))
        eng.run()
        # FIFO: the big request drains first (10 s), then the small (1 s).
        assert done[0][0] == "big"
        assert done[0][1] == pytest.approx(10.0, rel=0.01)
        assert done[1][1] == pytest.approx(11.0, rel=0.01)

    def test_tokens_refill_between_requests(self):
        eng = Engine()
        bucket = TokenBucket(eng, rate=100.0, burst=100.0)
        times = []

        def proc(env):
            yield bucket.consume(100.0)  # drains burst at t=0
            yield env.timeout(1.0)  # refills fully (100 tokens)
            yield bucket.consume(100.0)  # instant again
            times.append(env.now)

        eng.process(proc(eng))
        eng.run()
        assert times == [1.0]

    def test_total_consumed_tracked(self):
        eng = Engine()
        bucket = TokenBucket(eng, rate=100.0, burst=100.0)

        def proc(env):
            yield bucket.consume(30.0)
            yield bucket.consume(20.0)

        eng.process(proc(eng))
        eng.run()
        assert bucket.total_consumed == pytest.approx(50.0)

    def test_invalid_parameters_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            TokenBucket(eng, rate=0.0, burst=1.0)
        with pytest.raises(SimulationError):
            TokenBucket(eng, rate=1.0, burst=0.0)
        bucket = TokenBucket(eng, rate=1.0, burst=1.0)
        with pytest.raises(SimulationError):
            bucket.consume(-1.0)


class _DrainBucket:
    """Reference oracle: the token bucket as a FIFO drain process.

    This is the coroutine :class:`TokenBucket` used before it computed
    completion times in closed form, kept verbatim: every ``reserve`` /
    ``consume`` completion must equal the time this drain loop reaches.
    """

    def __init__(self, env, rate, burst):
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = env.now
        self._pending = deque()  # (event, amount)
        self._draining = False
        self.total_consumed = 0.0

    def _refill(self):
        now = self.env.now
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def consume(self, amount):
        event = Event(self.env)
        self._pending.append((event, float(amount)))
        if not self._draining:
            self._draining = True
            self.env.process(self._drain(), name="reference-drain")
        return event

    def _drain(self):
        while self._pending:
            event, amount = self._pending[0]
            self._refill()
            if self._tokens >= amount:
                self._tokens -= amount
            else:
                # Larger-than-burst (or currently unaffordable) requests
                # drain the bucket and then occupy the link for the
                # remaining bytes; the wait time itself pays for the
                # accrual, so the clock (not the capped bucket) meters it.
                deficit = amount - self._tokens
                self._tokens = 0.0
                yield self.env.timeout(deficit / self.rate)
                self._updated = self.env.now
            self.total_consumed += amount
            self._pending.popleft()
            event.succeed(None)
        self._draining = False


def _drive(make_bucket, rate, burst, steps):
    """Issue *steps* through ``consume`` in simulated time.

    A step is ``(gap, amount)``: ``gap`` is seconds after the previous
    arrival, or ``None`` to arrive exactly when the previous request
    completes.  Returns the completion times in request order.
    """
    env = Engine()
    bucket = make_bucket(env, rate, burst)
    completions = []

    def driver():
        previous = None
        for gap, amount in steps:
            if gap is None:
                if previous is not None:
                    yield previous
            elif gap > 0:
                yield env.timeout_until(env.now + gap)
            previous = bucket.consume(amount)
            previous.add_callback(lambda _event: completions.append(env.now))

    env.process(driver())
    env.run()
    return completions, bucket.total_consumed


def _reserve_all(rate, burst, steps):
    """The same steps through ``reserve`` alone, with no event loop."""
    bucket = TokenBucket(Engine(), rate, burst)
    at = 0.0
    ends = []
    for gap, amount in steps:
        if gap is None:
            at = ends[-1] if ends else at
        else:
            at = at + gap
        ends.append(bucket.reserve(amount, at))
    return ends, bucket.total_consumed


_RATE_BURST = [(100.0, 50.0), (10.0, 1e-9), (3.0, 7.0)]


class TestClosedFormAgainstDrainLoop:
    @pytest.mark.parametrize("rate,burst", _RATE_BURST)
    @pytest.mark.parametrize(
        "steps",
        [
            # Equal arrivals: three requests in one instant.
            [(0.0, 10.0), (0.0, 10.0), (0.0, 100.0)],
            # Arrivals exactly at the previous completion.
            [(0.0, 200.0), (None, 5.0), (None, 200.0), (None, 0.0)],
            # Zero, below-burst and above-burst amounts.
            [(0.0, 0.0), (0.5, 1.0), (0.0, 500.0), (0.1, 0.0)],
            # Refill gaps longer than burst / rate.
            [(0.0, 60.0), (100.0, 40.0), (250.0, 60.0), (1e6, 1.0)],
        ],
    )
    def test_cases_match_reference(self, rate, burst, steps):
        expected = _drive(_DrainBucket, rate, burst, steps)
        assert _drive(TokenBucket, rate, burst, steps) == expected
        assert _reserve_all(rate, burst, steps) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        rate_burst=st.sampled_from(_RATE_BURST)
        | st.tuples(
            st.floats(1e-3, 1e6, allow_nan=False),
            st.floats(1e-3, 1e6, allow_nan=False),
        ),
        data=st.data(),
    )
    def test_property_completion_times_equal_reference(self, rate_burst, data):
        rate, burst = rate_burst
        refill = burst / rate
        gaps = st.one_of(
            st.just(0.0),
            st.none(),
            st.floats(0.0, refill, allow_nan=False),
            st.floats(refill, 4.0 * refill, allow_nan=False),
        )
        amounts = st.one_of(
            st.just(0.0),
            st.floats(0.0, burst, allow_nan=False),
            st.floats(burst, 8.0 * burst, allow_nan=False),
        )
        steps = data.draw(st.lists(st.tuples(gaps, amounts), min_size=1, max_size=25))
        expected = _drive(_DrainBucket, rate, burst, steps)
        assert _drive(TokenBucket, rate, burst, steps) == expected
        assert _reserve_all(rate, burst, steps) == expected

    def test_out_of_order_reserve_rejected(self):
        bucket = TokenBucket(Engine(), rate=10.0, burst=5.0)
        assert bucket.reserve(1.0, 2.0) == 2.0
        assert bucket.reserve(1.0, 2.0) == 2.0  # ties are in order
        with pytest.raises(SimulationError):
            bucket.reserve(1.0, 1.5)

    def test_negative_reserve_rejected(self):
        bucket = TokenBucket(Engine(), rate=10.0, burst=5.0)
        with pytest.raises(SimulationError):
            bucket.reserve(-1.0, 0.0)

"""Tests for the open-loop load generator.

The arrival processes are checked statistically (deterministic per
seed, right mean rate), the percentile reduction against hand-computed
nearest-rank values on known traces, and the end-to-end open-loop run
for its accounting contract — including the acceptance behaviour the
serving layer exists for: mean batch size grows with offered load, and
low-load p99 respects the SLO.
"""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ServingError, ServingOverloadError
from repro.serving.broker import MicroBatchBroker
from repro.serving.loadgen import (
    LoadResult,
    diurnal_arrivals,
    format_load_results,
    percentile_summary,
    poisson_arrivals,
    run_open_loop,
)
from tests.serving.test_broker import FakeEngine


class TestArrivals:
    def test_poisson_deterministic_sorted_and_bounded(self):
        a = poisson_arrivals(1000.0, 2.0, seed=5)
        b = poisson_arrivals(1000.0, 2.0, seed=5)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a[0] >= 0 and a[-1] < 2.0
        # ~2000 expected; 6-sigma bounds
        assert 1700 < a.size < 2300
        assert not np.array_equal(a, poisson_arrivals(1000.0, 2.0, seed=6))

    def test_poisson_rejects_bad_parameters(self):
        with pytest.raises(ServingError, match="rate_rps"):
            poisson_arrivals(0.0, 1.0)
        with pytest.raises(ServingError, match="duration_s"):
            poisson_arrivals(10.0, 0.0)

    def test_diurnal_mean_rate_and_modulation(self):
        a = diurnal_arrivals(1000.0, 4.0, peak_ratio=4.0, cycles=1.0, seed=9)
        # Mean offered rate is preserved (~4000 arrivals)
        assert 3400 < a.size < 4600
        # Trough at the start of the cycle, peak mid-cycle: the middle
        # half of the run must hold clearly more than half the traffic.
        mid = np.count_nonzero((a > 1.0) & (a < 3.0))
        assert mid / a.size > 0.6

    def test_diurnal_rejects_bad_parameters(self):
        with pytest.raises(ServingError, match="peak_ratio"):
            diurnal_arrivals(10.0, 1.0, peak_ratio=0.5)
        with pytest.raises(ServingError, match="cycles"):
            diurnal_arrivals(10.0, 1.0, cycles=0.0)


class TestPercentiles:
    def test_nearest_rank_on_known_trace(self):
        # method="higher": p50 of [10,20,30,40] is the 3rd value.
        summary = percentile_summary([40.0, 10.0, 30.0, 20.0])
        assert summary["p50"] == 30.0
        assert summary["p95"] == 40.0
        assert summary["p99"] == 40.0
        assert summary["mean"] == 25.0
        assert summary["max"] == 40.0

    def test_nearest_rank_on_1_to_100(self):
        summary = percentile_summary(np.arange(1.0, 101.0))
        assert summary["p50"] == 51.0
        assert summary["p95"] == 96.0
        assert summary["p99"] == 100.0

    def test_percentiles_are_observed_values(self):
        # Never an interpolation below an observed tail value.
        lat = [0.001] * 99 + [5.0]
        assert percentile_summary(lat)["p99"] == 5.0

    def test_empty_sample_raises(self):
        with pytest.raises(ServingError, match="zero completions"):
            percentile_summary([])

    def test_single_sample_is_every_percentile(self):
        # n=1: every nearest-rank percentile is the one observation.
        summary = percentile_summary([7.25])
        assert summary["p50"] == 7.25
        assert summary["p95"] == 7.25
        assert summary["p99"] == 7.25
        assert summary["mean"] == 7.25
        assert summary["max"] == 7.25

    def test_two_samples_take_the_higher_rank(self):
        # n=2, method="higher": the 50th percentile's fractional rank
        # (0.5 of the way from 1.0 to 9.0) rounds *up* to the second
        # observation — never an interpolated 5.0.
        summary = percentile_summary([9.0, 1.0])
        assert summary["p50"] == 9.0
        assert summary["p95"] == 9.0
        assert summary["p99"] == 9.0
        assert summary["mean"] == 5.0
        assert summary["max"] == 9.0

    def test_all_equal_samples_are_degenerate(self):
        summary = percentile_summary([4.0] * 5)
        assert summary == {
            "p50": 4.0, "p95": 4.0, "p99": 4.0, "mean": 4.0, "max": 4.0
        }


def drive(engine, arrivals, **broker_kwargs):
    data = np.arange(12.0, dtype=np.float64).reshape(4, 3)

    async def scenario():
        async with MicroBatchBroker(engine, **broker_kwargs) as broker:
            return await run_open_loop(
                broker, data, arrivals, name="t", slo_ms=200.0
            )

    return asyncio.run(scenario())


class TestOpenLoop:
    def test_accounting_on_a_known_trace(self):
        engine = FakeEngine()
        arrivals = np.linspace(0.0, 0.2, 21)  # 100 rps, 21 requests
        result = drive(engine, arrivals, max_batch_rows=64, max_wait_ms=2.0)
        assert result.n_sent == 21
        assert result.n_ok == 21
        assert result.n_rejected == 0 and result.n_failed == 0
        assert result.goodput_rps > 0
        assert result.offered_rps == pytest.approx(21 / 0.2)
        assert result.slo_met is True
        assert sum(c[0] for c in engine.calls) == 21

    def test_mean_batch_size_grows_with_offered_load(self):
        """The acceptance criterion: adaptive micro-batching means a
        higher arrival rate coalesces into larger batches."""
        slow = drive(
            FakeEngine(delay_s=0.002),
            poisson_arrivals(150.0, 0.4, seed=3),
            max_batch_rows=512,
            max_wait_ms=5.0,
        )
        fast = drive(
            FakeEngine(delay_s=0.002),
            poisson_arrivals(4000.0, 0.4, seed=3),
            max_batch_rows=512,
            max_wait_ms=5.0,
        )
        assert fast.mean_batch_rows > 2 * slow.mean_batch_rows
        assert slow.slo_met and fast.slo_met

    def test_overload_sheds_instead_of_queueing(self):
        result = drive(
            FakeEngine(delay_s=0.05),
            np.zeros(64),  # a burst far beyond the queue bound
            max_batch_rows=8,
            max_wait_ms=2.0,
            max_queue_rows=16,
        )
        assert result.n_rejected > 0
        assert result.n_ok + result.n_rejected == 64
        # Everything admitted was answered within the bounded queue.
        assert result.n_failed == 0

    def test_query_mix_cycles_signatures_and_reports_values(self):
        """Mixed traffic: request i carries query_mix[i % len], the
        broker keeps the signatures in separate batches, and on_result
        hands back every answered (index, value) pair."""
        engine = FakeEngine()
        mix = [(None, None), ((0, 1), None), (None, -1.0)]
        answers = {}

        async def scenario():
            data = np.arange(12.0, dtype=np.float64).reshape(4, 3)
            async with MicroBatchBroker(
                engine, max_batch_rows=64, max_wait_ms=2.0
            ) as broker:
                return await run_open_loop(
                    broker,
                    data,
                    np.linspace(0.0, 0.1, 12),
                    name="mix",
                    query_mix=mix,
                    on_result=lambda i, value: answers.__setitem__(i, value),
                )

        result = asyncio.run(scenario())
        assert result.n_ok == 12
        signatures = {(marg, miss) for (_, marg, miss) in engine.calls}
        assert signatures == {(None, None), ((0, 1), None), (None, -1.0)}
        # Every answered request reported exactly once, with the
        # engine's value for its row (row i%4 starts at 3*(i%4)).
        assert sorted(answers) == list(range(12))
        assert all(answers[i] == (i % 4) * 30.0 for i in answers)

    def test_empty_query_mix_rejected(self):
        async def scenario():
            async with MicroBatchBroker(FakeEngine()) as broker:
                await run_open_loop(
                    broker, np.zeros((1, 3)), np.array([0.0]), query_mix=[]
                )

        with pytest.raises(ServingError, match="query_mix"):
            asyncio.run(scenario())

    def test_empty_trace_rejected(self):
        async def scenario():
            async with MicroBatchBroker(FakeEngine()) as broker:
                await run_open_loop(broker, np.zeros((1, 3)), np.array([]))

        with pytest.raises(ServingError, match="empty arrival trace"):
            asyncio.run(scenario())


class ScriptedBroker:
    """Broker stand-in answering row *v* (first column) per ``script[v]``:
    ``"fast"`` at once, ``"slow"`` after 50 ms, ``"shed"`` or ``"fail"``
    by raising — a latency trace known before the run."""

    def __init__(self, script):
        self.script = script
        self.stats = SimpleNamespace(mean_batch_rows=1.0)

    async def submit(self, row, *, marginalized=None, missing_value=None):
        kind = self.script[int(row[0])]
        if kind == "shed":
            raise ServingOverloadError("shed")
        if kind == "fail":
            raise RuntimeError("engine failed")
        if kind == "slow":
            await asyncio.sleep(0.05)
        return float(row[0])


def drive_script(script, slo_ms=10.0):
    data = np.arange(float(len(script))).reshape(-1, 1)
    return asyncio.run(
        run_open_loop(
            ScriptedBroker(script), data, np.zeros(len(script)), slo_ms=slo_ms
        )
    )


class TestBurnRate:
    def test_burn_rate_follows_the_sre_convention(self):
        # Target 99% -> 1% budget. 2 of 100 answers over a 10 ms SLO is
        # a 2% violation rate = burning budget at 2x.
        result = drive_script(["fast"] * 98 + ["slow"] * 2)
        assert result.n_ok == 100
        assert result.burn_rate == pytest.approx(2.0)

    def test_sheds_burn_budget(self):
        # A shed request is a violation: 1 of 2 is a 50% violation rate.
        result = drive_script(["fast", "shed"])
        assert (result.n_ok, result.n_rejected) == (1, 1)
        assert result.burn_rate == pytest.approx(50.0)

    def test_failed_requests_leave_zero_burn(self):
        # Failures are neither answered nor shed: nothing to account.
        result = drive_script(["fail", "fail"])
        assert result.n_failed == 2
        assert result.burn_rate == 0.0

    def test_nonpositive_slo_rejected(self):
        with pytest.raises(ServingError, match="slo_ms"):
            drive_script(["fast"], slo_ms=0.0)


class TestFormatting:
    def test_table_renders_slo_verdicts(self):
        rows = [
            LoadResult(
                name="poisson@100", offered_rps=100.0, duration_s=1.0,
                n_sent=100, n_ok=100, n_rejected=0, n_failed=0,
                goodput_rps=99.0, p50_ms=2.0, p95_ms=4.0, p99_ms=5.0,
                mean_batch_rows=1.5, slo_ms=50.0,
            ),
            LoadResult(
                name="poisson@9k", offered_rps=9000.0, duration_s=1.0,
                n_sent=9000, n_ok=7000, n_rejected=2000, n_failed=0,
                goodput_rps=7000.0, p50_ms=20.0, p95_ms=80.0, p99_ms=90.0,
                mean_batch_rows=400.0, slo_ms=50.0,
                shed_rate=2000 / 9000, burn_rate=23.4,
            ),
        ]
        table = format_load_results(rows)
        assert "poisson@100" in table and "poisson@9k" in table
        assert "ok" in table and "MISS" in table
        # Shed visibility: the overloaded point shows its shed *rate*
        # and its SLO burn rate right in the table.
        assert "22.2%" in table
        assert "23.40" in table
        assert "shed%" in table and "burn" in table
        lines = table.splitlines()
        assert all(len(line) <= 110 for line in lines)

    def test_result_to_dict_round_trips_json_natively(self):
        import json

        result = LoadResult(
            name="x", offered_rps=1.0, duration_s=1.0, n_sent=1, n_ok=1,
            n_rejected=0, n_failed=0, goodput_rps=1.0, p50_ms=1.0,
            p95_ms=1.0, p99_ms=1.0, mean_batch_rows=1.0,
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["slo_met"] is None
        assert payload["n_ok"] == 1

"""Unit tests for the log-bucketed latency histogram.

The satellite acceptance check lives in ``TestMatchesNearestRank``:
the histogram's percentiles must agree with the loadgen's exact
nearest-rank ``percentile_summary`` to within one bucket's relative
width across the degenerate and heavy-tailed sample shapes the serving
sweeps actually produce.
"""

import math
import threading

import pytest

from repro.errors import ReproError
from repro.obs.hist import (
    DEFAULT_GROWTH,
    DEFAULT_MAX_VALUE,
    DEFAULT_MIN_VALUE,
    LogHistogram,
)
from repro.serving.loadgen import percentile_summary


class TestGeometry:
    def test_bucket_count_is_fixed_at_construction(self):
        hist = LogHistogram("lat")
        expected = math.ceil(
            math.log(DEFAULT_MAX_VALUE / DEFAULT_MIN_VALUE)
            / math.log(DEFAULT_GROWTH)
        ) + 1
        assert hist.n_buckets == expected
        for _ in range(10_000):
            hist.record(0.003)
        assert hist.n_buckets == expected  # memory never grows
        assert hist.relative_error == pytest.approx(DEFAULT_GROWTH - 1.0)

    def test_values_clamp_into_the_edge_buckets(self):
        hist = LogHistogram("edges", min_value=1e-3, max_value=1.0)
        hist.record(1e-9)   # below min -> bucket 0
        hist.record(-5.0)   # negative clamps to zero -> bucket 0
        hist.record(50.0)   # beyond max -> last bucket, exact max kept
        buckets = hist.nonzero_buckets()
        assert len(buckets) == 2
        assert hist.max == 50.0
        assert hist.min == 0.0
        assert hist.count == 3

    def test_invalid_layout_rejected(self):
        with pytest.raises(ReproError, match="min_value"):
            LogHistogram("x", min_value=0.0)
        with pytest.raises(ReproError, match="max_value"):
            LogHistogram("x", min_value=1.0, max_value=0.5)
        with pytest.raises(ReproError, match="growth"):
            LogHistogram("x", growth=1.0)

    def test_empty_histogram_reports_nan(self):
        hist = LogHistogram("empty")
        assert math.isnan(hist.p50)
        assert math.isnan(hist.mean)
        assert math.isnan(hist.min) and math.isnan(hist.max)
        assert hist.count == 0

    def test_bad_quantile_rejected(self):
        hist = LogHistogram("q")
        hist.record(1.0)
        with pytest.raises(ReproError, match="q must be in"):
            hist.percentile(101.0)


class TestMerge:
    def test_merge_adds_bucket_counts_and_extrema(self):
        a = LogHistogram("lane0")
        b = LogHistogram("lane1")
        for v in (0.001, 0.002, 0.004):
            a.record(v)
        for v in (0.008, 0.1):
            b.record(v)
        a.merge(b)
        assert a.count == 5
        assert a.total == pytest.approx(0.115)
        assert a.min == 0.001 and a.max == 0.1
        # Merged percentiles match recording everything into one.
        direct = LogHistogram("all")
        for v in (0.001, 0.002, 0.004, 0.008, 0.1):
            direct.record(v)
        assert a.p50 == direct.p50
        assert a.p99 == direct.p99

    def test_merge_rejects_mismatched_layout(self):
        a = LogHistogram("a")
        b = LogHistogram("b", min_value=1e-3)
        with pytest.raises(ReproError, match="bucket layouts differ"):
            a.merge(b)
        c = LogHistogram("c", growth=2.0)
        with pytest.raises(ReproError, match="bucket layouts differ"):
            a.merge(c)


class TestMatchesNearestRank:
    """Satellite check: histogram quantiles vs exact nearest-rank."""

    CASES = {
        "n1": [7.25],
        "n2": [9.0, 1.0],
        "heavy_tail": [0.001] * 99 + [5.0],
        "all_equal": [4.0] * 5,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_within_one_bucket_width(self, case):
        samples = self.CASES[case]
        hist = LogHistogram(case)
        for v in samples:
            hist.record(v)
        exact = percentile_summary(samples)
        for key, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            got = hist.percentile(q)
            # Never below the exact nearest-rank value, never more than
            # one bucket's relative width above it.
            assert got >= exact[key] or got == pytest.approx(exact[key])
            assert got <= exact[key] * (1.0 + hist.relative_error)
        assert hist.mean == pytest.approx(exact["mean"])
        assert hist.max == exact["max"]

    def test_degenerate_samples_are_exact(self):
        # n=1 and all-equal must be *exact*, not just within a bucket.
        single = LogHistogram("one")
        single.record(7.25)
        assert single.p50 == single.p99 == single.p999 == 7.25
        equal = LogHistogram("same")
        for _ in range(5):
            equal.record(4.0)
        assert equal.p50 == equal.p99 == 4.0


class TestWeightedRecord:
    """``record(v, count=n)`` is ``n`` calls of ``record(v)``."""

    def test_weighted_record_equals_repeated_records(self):
        samples = [(0.0005, 3), (0.004, 1), (0.004, 7), (2.5, 2), (-1.0, 4)]
        weighted = LogHistogram("weighted")
        repeated = LogHistogram("repeated")
        for value, n in samples:
            weighted.record(value, count=n)
            for _ in range(n):
                repeated.record(value)
        assert weighted.count == repeated.count == 17
        assert weighted.nonzero_buckets() == repeated.nonzero_buckets()
        assert weighted.min == repeated.min
        assert weighted.max == repeated.max
        assert weighted.total == pytest.approx(repeated.total)
        for q in (0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0):
            assert weighted.percentile(q) == repeated.percentile(q)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        hist = LogHistogram("bad")
        with pytest.raises(ReproError, match="count must be >= 1"):
            hist.record(1.0, count=count)
        assert hist.count == 0

    def test_registry_lock_covers_weighted_records(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        hist = registry.histogram("serving.kernel")
        n, rounds, weight = 4, 2_000, 5

        def hammer():
            for _ in range(rounds):
                hist.record(0.002, count=weight)

        threads = [threading.Thread(target=hammer) for _ in range(n)]
        # A reader holding the registry's lock sees no half-applied
        # weighted record: count and total move together.
        with registry._lock:
            for t in threads:
                t.start()
            assert hist.count == 0
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert hist.count == n * rounds * weight
        assert hist.total == pytest.approx(n * rounds * weight * 0.002)
        assert [c for _, c in hist.nonzero_buckets()] == [n * rounds * weight]


class TestExport:
    def test_summary_and_to_dict_are_json_native(self):
        import json

        hist = LogHistogram("lat")
        for v in (0.001, 0.002, 0.004, 0.008):
            hist.record(v)
        payload = json.loads(json.dumps(hist.to_dict()))
        assert payload["count"] == 4
        assert payload["name"] == "lat"
        assert len(payload["buckets"]) == len(hist.nonzero_buckets())
        assert sum(n for _, n in payload["buckets"]) == 4

    def test_shared_lock_keeps_concurrent_records_atomic(self):
        lock = threading.RLock()
        hist = LogHistogram("shared", lock=lock)
        n, rounds = 4, 5_000

        def hammer():
            for _ in range(rounds):
                hist.record(0.002)

        threads = [threading.Thread(target=hammer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n * rounds
        assert hist.total == pytest.approx(n * rounds * 0.002)

"""Unit tests for the metrics primitives and registry."""

import json
import threading

import pytest

from repro.errors import ReproError
from repro.obs.hist import LogHistogram
from repro.obs.metrics import Counter, MetricsRegistry, TimeWeightedStat


class Level:
    """An owner of one level field and its high-water mark."""

    def __init__(self, level=0.0, peak=0.0):
        self.level = level
        self.peak = peak


def register_gauge(registry, name, owner):
    prefix, _, leaf = name.rpartition(".")
    registry.register_stats(owner, prefix, (), gauges={leaf: ("level", "peak")})


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        assert counter.value == 0.0
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = Counter("x")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.add(-1.0)


class TestTimeWeightedStat:
    def test_mean_integrates_levels_over_time(self):
        stat = TimeWeightedStat("queue")
        stat.update(2.0, now=0.0)
        stat.update(4.0, now=1.0)  # level 2 held for 1s
        stat.update(0.0, now=3.0)  # level 4 held for 2s
        assert stat.mean() == pytest.approx((2.0 * 1 + 4.0 * 2) / 3)
        assert stat.maximum == 4.0

    def test_mean_is_zero_before_any_interval(self):
        stat = TimeWeightedStat("queue")
        assert stat.mean() == 0.0
        stat.update(7.0, now=5.0)
        assert stat.mean() == 0.0  # no elapsed window yet
        assert stat.maximum == 7.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.time_stat("t") is registry.time_stat("t")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_is_a_registered_kind(self):
        from repro.errors import ReproError

        registry = MetricsRegistry()
        hist = registry.histogram("serving.e2e")
        assert isinstance(hist, LogHistogram)
        assert registry.has("serving.e2e")
        assert "serving.e2e" in list(registry.names())
        with pytest.raises(ReproError, match="already registered as a histogram"):
            registry.counter("serving.e2e")
        registry.counter("serving.requests")
        with pytest.raises(ReproError, match="cannot re-register it as a histogram"):
            registry.histogram("serving.requests")

    def test_histogram_kwargs_configure_first_creation_only(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", min_value=1e-3, max_value=10.0)
        assert hist.min_value == 1e-3
        # Later lookups ignore layout kwargs and return the same object.
        assert registry.histogram("h", min_value=1.0) is hist

    def test_value_reads_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        register_gauge(registry, "x.g", Level(5, 5))
        assert registry.value("c") == 2
        assert registry.value("x.g") == 5
        assert registry.value("missing", default=-1) == -1

    def test_maximum_reads_gauges_and_time_stats(self):
        registry = MetricsRegistry()
        register_gauge(registry, "x.g", Level(1, 9))
        stat = registry.time_stat("t")
        stat.update(3.0, now=0.0)
        assert registry.maximum("x.g") == 9
        assert registry.maximum("t") == 3.0
        assert registry.maximum("missing", default=-1) == -1

    def test_has_and_names_cover_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c")
        register_gauge(registry, "x.g", Level())
        registry.time_stat("t")
        assert registry.has("c") and registry.has("x.g") and registry.has("t")
        assert not registry.has("zzz")
        assert sorted(registry.names()) == ["c", "t", "x.g"]

    def test_name_collision_across_kinds_rejected(self):
        from repro.errors import ReproError

        registry = MetricsRegistry()
        registry.counter("hbm.ch0.bytes_read")
        with pytest.raises(ReproError, match="already registered"):
            register_gauge(registry, "hbm.ch0.bytes_read", Level())
        with pytest.raises(ReproError, match="cannot re-register it as a time_stat"):
            registry.time_stat("hbm.ch0.bytes_read")
        register_gauge(registry, "x.depth", Level())
        with pytest.raises(ReproError, match="already registered as a gauge"):
            registry.counter("x.depth")
        registry.time_stat("x.queue")
        with pytest.raises(ReproError, match="already registered"):
            register_gauge(registry, "x.queue", Level())
        registry.register_stats(Level(3.0), "x", {"served": "level"})
        with pytest.raises(ReproError, match="cannot re-register it as a counter"):
            registry.counter("x.served")
        assert registry.value("x.served") == 3.0

    def test_same_kind_reregistration_is_not_a_collision(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.add(2)
        assert registry.counter("c") is counter
        assert registry.counter("c").value == 2

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("hbm.ch0.requests").add(3)
        register_gauge(registry, "mem.block0.allocated_bytes", Level(4096, 4096))
        registry.time_stat("hbm.ch0.queue_depth").update(1.0, now=0.0)
        registry.time_stat("hbm.ch0.queue_depth").update(0.0, now=2.0)
        registry.histogram("serving.e2e").record(0.004)
        snapshot = json.loads(registry.to_json())
        assert snapshot == registry.snapshot()
        assert snapshot["counters"]["hbm.ch0.requests"] == 3
        assert snapshot["gauges"]["mem.block0.allocated_bytes"]["max"] == 4096
        assert snapshot["time_stats"]["hbm.ch0.queue_depth"]["mean"] == 1.0
        assert snapshot["histograms"]["serving.e2e"]["count"] == 1

    def test_empty_histogram_snapshot_is_strict_json(self):
        # NaN percentiles become None so strict JSON parsers accept it.
        registry = MetricsRegistry()
        registry.histogram("serving.e2e")
        payload = json.loads(registry.to_json(), parse_constant=lambda c: (
            pytest.fail(f"non-strict JSON constant {c!r} in snapshot")
        ))
        summary = payload["histograms"]["serving.e2e"]
        assert summary["count"] == 0
        assert summary["p99"] is None and summary["mean"] is None


class TestRegisteredFields:
    """Field-backed stats: the owner keeps plain numbers, the registry
    reads them whenever it is read."""

    class Owner:
        def __init__(self):
            self.requests = 0
            self.total_samples = 0
            self.level = 0
            self.peak = 0

    def test_reads_fields_live_as_floats(self):
        registry, owner = MetricsRegistry(), self.Owner()
        registry.register_stats(
            owner, "pe0", {"jobs": "requests", "samples": "total_samples"},
            gauges={"level": ("level", "peak")},
        )
        owner.requests, owner.level, owner.peak = 3, 2, 5
        assert registry.value("pe0.jobs") == 3.0
        assert registry.maximum("pe0.level") == 5.0
        assert registry.has("pe0.samples")
        snap = json.loads(registry.to_json())
        assert snap["counters"] == {"pe0.jobs": 3.0, "pe0.samples": 0.0}
        assert snap["gauges"] == {"pe0.level": {"value": 2.0, "max": 5.0}}
        assert '"pe0.samples": 0.0' in registry.to_json()

    def test_field_names_double_as_metric_names(self):
        registry, owner = MetricsRegistry(), self.Owner()
        registry.register_stats(owner, "hbm.ch0", ("requests",))
        owner.requests += 1
        assert registry.value("hbm.ch0.requests") == 1.0

    def test_name_registered_twice_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dma.requests")
        with pytest.raises(ReproError):
            registry.register_stats(self.Owner(), "dma", ("requests",))

    def test_several_owners_sum_and_keep_the_largest_high_water(self):
        # One registry across a sweep: each rate point's broker
        # registers the same names, and the registry adds them up.
        registry, first, second = MetricsRegistry(), self.Owner(), self.Owner()
        for owner in (first, second):
            registry.register_stats(
                owner, "serving", ("requests",),
                gauges={"queue_rows": ("level", "peak")},
            )
        first.requests, first.peak = 3, 7
        second.requests, second.level, second.peak = 4, 2, 5
        assert registry.value("serving.requests") == 7.0
        assert registry.value("serving.queue_rows") == 2.0
        assert registry.maximum("serving.queue_rows") == 7.0
        with pytest.raises(ReproError, match="already registered"):
            registry.register_stats(first, "serving", ("queue_rows",))


class TestConcurrentLaneCompletion:
    """Regression: dispatch-lane threads update shared instruments
    concurrently; every increment must land exactly once."""

    N_THREADS = 4
    ROUNDS = 5_000
    SNAPSHOTS = 200

    def _hammer(self, work):
        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_two_lane_counter_hammer_loses_no_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("serving.rows")

        def work(_):
            for _ in range(self.ROUNDS):
                counter.add(1)

        self._hammer(work)
        assert counter.value == self.N_THREADS * self.ROUNDS

    def test_mixed_instrument_hammer_stays_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("serving.batches")
        hist = registry.histogram("serving.e2e")

        def work(_):
            for _ in range(self.ROUNDS):
                counter.add(1)
                hist.record(0.002)

        self._hammer(work)
        total = self.N_THREADS * self.ROUNDS
        assert counter.value == total
        assert hist.count == total

    def test_snapshot_during_hammer_is_consistent(self):
        # Snapshots taken mid-flight under the registry lock must see
        # a consistent cut (counter == histogram count per round).  The
        # snapshotter stops after SNAPSHOTS mid-flight cuts or when the
        # workers finish, and worker 0 waits halfway until one cut has
        # landed, so at least one snapshot is taken mid-flight.
        registry = MetricsRegistry()
        counter = registry.counter("serving.requests")
        hist = registry.histogram("serving.e2e")
        total = self.N_THREADS * self.ROUNDS
        stop = threading.Event()
        halfway = threading.Event()
        errors = []
        mid_flight = []

        def work(thread):
            for round_ in range(self.ROUNDS):
                if thread == 0 and round_ == self.ROUNDS // 2:
                    halfway.wait()
                with registry._lock:
                    counter.add(1)
                    hist.record(0.001)

        def snapshotter():
            while not stop.is_set() and len(mid_flight) < self.SNAPSHOTS:
                snap = registry.snapshot()
                count = snap["counters"]["serving.requests"]
                if count != snap["histograms"]["serving.e2e"]["count"]:
                    errors.append(snap)
                if 0 < count < total:
                    mid_flight.append(count)
                    halfway.set()

        watcher = threading.Thread(target=snapshotter)
        watcher.start()
        self._hammer(work)
        stop.set()
        watcher.join()
        assert not errors
        assert mid_flight
        assert counter.value == self.N_THREADS * self.ROUNDS

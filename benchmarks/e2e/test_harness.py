"""Self-tests of the benchmark harness.

Not part of tier 1 (``testpaths`` names ``tests`` only); run with
``pytest benchmarks/e2e``.  They need neither ``PYTHONPATH=src`` nor
a compiler: they test the harness's own arithmetic and its contract
with ``BENCHMARK.json``, not the program.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from harness import reduce, schedule, spec
from harness.spans import SpanRecorder, layer_self_seconds, self_times, tree_self_seconds

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- reducers ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert reduce.percentile(values, 0.99) == 99
    assert reduce.percentile(values, 0.5) == 50
    assert reduce.percentile(values, 1.0) == 100
    assert reduce.samples_beyond(100, 0.99) == 1
    assert reduce.samples_beyond(4000, 0.99) == 40


def test_supported_quantile_keeps_ten_samples_beyond():
    assert reduce.supported_quantile(10, 0.99) is None
    assert reduce.supported_quantile(30, 0.99) == pytest.approx(20 / 30)
    assert reduce.supported_quantile(40, 0.99) == pytest.approx(0.75)
    assert reduce.supported_quantile(5000, 0.99) == 0.99
    value, q = reduce.tail(list(range(1, 31)))
    assert (value, q) == (20, pytest.approx(20 / 30))
    with pytest.raises(ValueError):
        reduce.tail([1.0] * 10)


def test_windowed_percentile_hand_computed():
    # Three windows of 100 samples; p90 leaves 10 beyond in each.
    # Window 0 holds 1..100 (p90 = 90), window 1 holds 101..200
    # (p90 = 190), window 2 is a "stall": everything reads 1000.
    values = list(range(1, 101)) + list(range(101, 201)) + [1000.0] * 100
    windows = [0] * 100 + [1] * 100 + [2] * 100
    value, used = reduce.windowed_percentile(values, windows, 0.90)
    assert used == 3
    assert value == 190  # the median window; the stalled one is outvoted


def test_windowed_percentile_drops_short_and_empty_windows():
    # Window 5 has 100 samples, window 7 only 50: p90 of 50 leaves 5
    # beyond, fewer than ten, so it is dropped.  Windows 0-4 and 6 are
    # empty and simply do not exist.
    values = list(range(100)) + [10_000.0] * 50
    windows = [5] * 100 + [7] * 50
    value, used = reduce.windowed_percentile(values, windows, 0.90)
    assert (value, used) == (89, 1)
    # The order samples arrive in does not matter.
    order = np.random.default_rng(0).permutation(150)
    shuffled = reduce.windowed_percentile(
        np.asarray(values)[order], np.asarray(windows)[order], 0.90)
    assert shuffled == (89, 1)


def test_windowed_percentile_enforces_samples_beyond():
    values, windows = [1.0] * 100, [0] * 100
    # p99 of 100 leaves one sample beyond: refused at the default ten.
    with pytest.raises(ValueError):
        reduce.windowed_percentile(values, windows, 0.99)
    assert reduce.windowed_percentile(values, windows, 0.99, min_beyond=1) == (1.0, 1)
    with pytest.raises(ValueError):
        reduce.windowed_percentile(values, windows[:-1], 0.5)


def test_iqr_share_matches_the_contract():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert reduce.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# -- seeded inputs -------------------------------------------------------------


def test_schedule_reproducible_from_seed_and_differs_across_seeds():
    a = schedule.poisson_schedule(8000.0, 2.0, seed=7)
    b = schedule.poisson_schedule(8000.0, 2.0, seed=7)
    c = schedule.poisson_schedule(8000.0, 2.0, seed=8)
    assert np.array_equal(a, b)
    assert len(a) != len(c) or not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 2.0
    # A Poisson count: 16 000 expected, sd ~126.
    assert abs(len(a) - 16_000) < 700


def test_row_choice_reproducible_and_independent_of_other_streams():
    a = schedule.row_choice(1000, 4096, seed=3)
    assert np.array_equal(a, schedule.row_choice(1000, 4096, seed=3))
    assert not np.array_equal(a, schedule.row_choice(1000, 4096, seed=4))
    assert not np.array_equal(a, schedule.row_choice(1000, 4096, seed=3, label="other"))
    assert a.min() >= 0 and a.max() < 4096
    items = list(range(40))
    assert schedule.shuffled(items, 5) == schedule.shuffled(items, 5)
    assert schedule.shuffled(items, 5) != schedule.shuffled(items, 6)
    assert sorted(schedule.shuffled(items, 5)) == items


# -- spans -----------------------------------------------------------------------


def test_span_self_time_arithmetic():
    rec = SpanRecorder()
    root = rec.add("workload.x", 0.0, 10.0)
    a = rec.add("baselines.submit", 1.0, 4.0, parent=root)
    b = rec.add("baselines.submit", 5.0, 9.0, parent=root)
    k = rec.add("compiler.kernel", 1.5, 3.5, parent=a)
    # Overlapping children are counted once (union), not twice.
    k2 = rec.add("compiler.kernel", 5.0, 7.0, parent=b)
    k3 = rec.add("compiler.kernel", 6.0, 8.0, parent=b)
    # Another track: concurrent work takes nothing from the parent.
    other = rec.add("serving.batch", 0.0, 10.0, track="lane0", parent=root)
    own = self_times(rec.spans)
    assert own[root] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[a] == pytest.approx(3.0 - 2.0)
    assert own[b] == pytest.approx(4.0 - 3.0)  # union of [5,7] and [6,8]
    assert own[k] == pytest.approx(2.0)
    assert own[other] == pytest.approx(10.0)
    layers = layer_self_seconds(rec.spans)
    assert layers["workload"] == pytest.approx(3.0)
    assert layers["baselines"] == pytest.approx(2.0)
    assert layers["compiler"] == pytest.approx(2.0 + own[k2] + own[k3])


def test_main_track_self_times_add_up_to_the_wall():
    rec = SpanRecorder()
    root = rec.add("workload.x", 0.0, 8.0)
    for i in range(4):
        op = rec.add("experiments.run_fig4", 2.0 * i, 2.0 * i + 1.5, parent=root)
        rec.add("compiler.kernel", 2.0 * i + 0.25, 2.0 * i + 1.0, parent=op)
    rec.add("serving.batch", 1.0, 7.0, track="lane1", parent=root)
    assert tree_self_seconds(rec.spans, root) == pytest.approx(8.0)
    # A child that sticks out of its parent breaks the partition, and
    # the sum shows it.
    rec.add("baselines.submit", 7.5, 9.0, parent=root)
    assert tree_self_seconds(rec.spans, root) > 8.0 + 0.9


def test_span_recorder_refuses_backwards_spans_and_dumps(tmp_path):
    import json

    rec = SpanRecorder()
    root = rec.add("workload.x", 1.0, 4.0)
    rec.add("driver.fire", 2.0, 3.0, parent=root, ref="req1")
    with pytest.raises(ValueError):
        rec.add("x.y", 2.0, 1.0)
    path = tmp_path / "spans.json"
    rec.dump(path, {"workload": "x"})
    data = json.loads(path.read_text())
    assert data["header"] == {"workload": "x"}
    assert data["columns"] == ["id", "name", "track", "start", "end", "parent", "ref"]
    assert data["spans"][1] == [1, "driver.fire", "main", 2.0, 3.0, 0, "req1"]


# -- the contract ------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_spec():
    return spec.load()


def test_benchmark_json_shape(benchmark_spec):
    assert set(benchmark_spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark_spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(benchmark_spec["workloads"]) <= 8
    assert 1 <= len(benchmark_spec["end_to_end"]) <= 16
    assert 1 <= len(benchmark_spec["per_layer"]) <= 128
    assert isinstance(benchmark_spec["run_seconds"], int)
    assert 1 <= benchmark_spec["run_seconds"] <= 60
    command = benchmark_spec["command"]
    assert len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert not any(part.startswith("/") or ".." in part for part in command)


def test_names_units_and_bounds(benchmark_spec):
    names = []
    for workload in benchmark_spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in benchmark_spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_spec["end_to_end"] + benchmark_spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in benchmark_spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in benchmark_spec["end_to_end"])


def test_harness_and_benchmark_json_name_the_same_things(benchmark_spec):
    from harness.probes import LAYERS
    from harness.workloads import WORKLOADS

    assert list(WORKLOADS) == spec.workload_names(benchmark_spec)
    per_layer = spec.units(benchmark_spec, "per_layer")
    for layer in LAYERS:
        assert f"trace.self_s.{layer}" in per_layer
    # Every per-layer name starts with a layer of the repo (or the
    # harness's own driver / trace).
    layers = {"spn", "compiler", "baselines", "serving", "driver", "obs",
              "experiments", "sim", "mem", "host", "accel", "trace"}
    assert {name.split(".")[0] for name in per_layer} <= layers


def test_result_metrics_refuse_unknown_and_missing_names():
    unit_of = {"a": "ms", "b": "s"}
    filled = spec.as_result_metrics({"a": 1}, unit_of, fill=True)
    assert filled == {"a": {"value": 1.0, "unit": "ms"},
                      "b": {"value": 0.0, "unit": "s"}}
    with pytest.raises(KeyError):
        spec.as_result_metrics({"a": 1}, unit_of, fill=False)
    with pytest.raises(KeyError):
        spec.as_result_metrics({"a": 1, "c": 2}, unit_of, fill=True)

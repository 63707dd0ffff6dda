"""Per-layer probes of the traced run.

Layers are measured from outside, by timing each layer's public
functions on the workload's own inputs and peeling: a layer's share is
its call minus the layer below at the same batch size (``submit``
minus the kernel alone, the lane round trip minus the kernel call).
Counts come from the program's public result objects and from a
``MetricsRegistry`` passed through its public ``metrics=`` arguments.

A traced run of one workload probes the layers that workload loads;
the per-layer metrics of other layers read 0 on it (``README.md`` has
the owner of every metric).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from . import spans as spans_mod
from .spans import SpanRecorder
from .workloads import Batch, Serve, SimFig4, simulate

GIB = float(1 << 30)


def _median_seconds(call: Callable[[], object], repeats: int) -> float:
    """Median wall seconds of *call* over *repeats* (after one warm-up)."""
    call()
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        call()
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# build-time record


def _record_path() -> Path:
    return Path(os.environ["REPRO_CACHE_DIR"]) / "build_times.json"


def build_times() -> Dict[str, float]:
    """Cold build seconds recorded by whichever run built each artifact."""
    try:
        with open(_record_path(), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _record_build_time(key: str, seconds: float) -> None:
    times = build_times()
    times[key] = seconds
    path = _record_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(times, handle)
    os.replace(tmp, path)


def learn_missing(networks) -> None:
    """Learn the SPNs the disk cache lacks, timing each (``spn.learn_s.*``).

    The program keys its cache by content, so this does nothing on
    every run but the first in a checkout; that run's ``setup_s``
    sample is slow, which the median over runs drops.
    """
    from repro.spn import nips_benchmark

    spn_cache = Path(os.environ["REPRO_CACHE_DIR"]) / "spn"
    for network in networks:
        if not list(spn_cache.glob(f"{network}-*.pkl")):
            began = time.perf_counter()
            nips_benchmark(network)
            _record_build_time(f"learn_s.{network.lower()}",
                               time.perf_counter() - began)


def record_native_build(registry) -> None:
    """Keep ``native.build_seconds`` of a set-up that had to compile
    (``compiler.native_build_s``)."""
    if registry.value("native.build_seconds") > 0:
        _record_build_time("native_build_s",
                           registry.value("native.build_seconds"))


# --------------------------------------------------------------------------
# host


def host_fingerprint() -> dict:
    """The part of the result header only the program's side knows."""
    from repro.compiler.native_build import compiler_command

    command = compiler_command()
    version = "none"
    if command:
        try:
            out = subprocess.run(command + ["--version"], capture_output=True,
                                 text=True, timeout=10)
            version = out.stdout.splitlines()[0] if out.stdout else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            version = "unknown"
    return {"numpy": np.__version__, "compiler": version}


def copy_gbytes_per_s(n_bytes: int = 80_000_000) -> float:
    """A measured memory ceiling: ``np.copyto`` of *n_bytes*, counting
    the bytes read and the bytes written."""
    src = np.ones(n_bytes // 8)
    dst = np.empty_like(src)
    seconds = _median_seconds(lambda: np.copyto(dst, src), 7)
    return 2 * src.nbytes / seconds / 1e9


# --------------------------------------------------------------------------
# per-workload probe sets


def _call_us(call: Callable[[int], object], sizes=(32, 512)) -> Dict[int, float]:
    return {b: _median_seconds(lambda: call(b), 300) * 1e6 for b in sizes}


def _serving_probes(workload: Serve, state: dict) -> Dict[str, float]:
    from repro.obs.hist import LogHistogram
    from repro.spn import get_plan
    from repro.spn.plan_eval import plan_log_likelihood

    engine, (pool, _) = state["engine"], state["pools"][0]
    plan = get_plan(state["spn"])
    out: Dict[str, float] = {}
    lane = engine.acquire_lane(512)
    try:
        lane.arena[:512] = pool[:512]
        for b, us in _call_us(lane.submit).items():
            out[f"baselines.lane_call_us.b{b}"] = us
    finally:
        lane.release()
    if workload.native:
        from repro.compiler.native_build import get_native_kernel

        kernel = get_native_kernel(plan, np.float64, require=True)
        for b, us in _call_us(lambda b: kernel.log_likelihood(pool[:b])).items():
            out[f"compiler.kernel_call_us.b{b}"] = us
    else:
        calls = _call_us(lambda b: plan_log_likelihood(plan, pool[:b]), (8, 512))
        for b, us in calls.items():
            out[f"spn.plan_call_us.b{b}"] = us
    hist = LogHistogram()
    n = 200_000
    began = time.perf_counter()
    for _ in range(n):
        hist.record(0.00123)
    out["obs.hist_record_ns"] = (time.perf_counter() - began) / n * 1e9
    return out


def _batch_native_probes(workload: Batch, state: dict, raw: dict) -> Dict[str, float]:
    from repro.compiler.native_build import (
        clear_native_kernels, get_native_kernel)
    from repro.spn import get_plan
    from repro.spn.plan import clear_plan_cache

    plan = get_plan(state["spn"])
    data = state["data"]
    rows, n_vars = data.shape
    clear_native_kernels()
    began = time.perf_counter()
    kernel = get_native_kernel(plan, np.float64, require=True)
    load_ms = (time.perf_counter() - began) * 1e3
    n_threads = os.cpu_count() or 1
    t1 = _median_seconds(lambda: kernel.log_likelihood(data, threads=1), 5)
    tn = _median_seconds(lambda: kernel.log_likelihood(data, threads=n_threads), 5)
    copy = copy_gbytes_per_s()
    # Computed, not measured: the bytes the kernel must move, one
    # float64 per variable in and one float64 result out, per row.
    kernel_gbytes = rows * (n_vars * 8 + 8) / t1 / 1e9
    # Plan and kernel memos dropped: what a constructor pays in a
    # process that has not used this network yet (artifact cached).
    clear_plan_cache()
    clear_native_kernels()
    engine = workload._engine(state["spn"])
    try:
        setup_s = engine.setup_seconds
    finally:
        engine.close()
    out = {
        "compiler.native_build_s": build_times().get("native_build_s", 0.0),
        "compiler.native_load_ms": load_ms,
        "compiler.kernel_rows_per_s.t1": rows / t1,
        "compiler.kernel_rows_per_s.tN": rows / tn,
        "compiler.kernel_thread_scaling_x": t1 / tn,
        "compiler.kernel_gbytes_per_s": kernel_gbytes,
        "compiler.kernel_bw_share": kernel_gbytes / copy,
        "host.copy_gbytes_per_s": copy,
        "baselines.executor_setup_s.native": setup_s,
        "baselines.submit_overhead_share":
            1.0 - t1 / statistics.median(raw["walls"]),
    }
    for b, us in _call_us(lambda b: kernel.log_likelihood(data[:b])).items():
        out[f"compiler.kernel_call_us.b{b}"] = us
    return out


def _batch_plan_probes(workload: Batch, state: dict, raw: dict) -> Dict[str, float]:
    from repro.baselines.executor import ParallelPlanExecutor
    from repro.experiments.utilization import host_cpu_batch
    from repro.spn import compile_plan, get_plan, nips_benchmark
    from repro.spn.plan_eval import plan_log_likelihood

    spn, data = state["spn"], state["data"]
    plan = get_plan(spn)
    began = time.perf_counter()
    compile_plan(spn)
    compile_ms = (time.perf_counter() - began) * 1e3
    direct = _median_seconds(lambda: plan_log_likelihood(plan, data), 3)
    small = nips_benchmark("NIPS10")
    small_data = host_cpu_batch("NIPS10", 200_000)
    small_s = _median_seconds(
        lambda: plan_log_likelihood(get_plan(small.spn), small_data), 3)

    before = set(os.listdir("/dev/shm"))
    pool = ParallelPlanExecutor(spn, n_workers=2, backend="plan", dispatch="pool")
    try:
        pool_setup = pool.setup_seconds
        pooled = _median_seconds(lambda: pool.submit(data), 5)
    finally:
        pool.close()
    leaked = len(set(os.listdir("/dev/shm")) - before)
    times = build_times()
    return {
        "spn.learn_s.nips10": times.get("learn_s.nips10", 0.0),
        "spn.learn_s.nips80": times.get("learn_s.nips80", 0.0),
        "spn.plan_compile_ms": compile_ms,
        "spn.plan_rows_per_s.nips10": len(small_data) / small_s,
        "spn.plan_rows_per_s.nips80": len(data) / direct,
        "baselines.executor_setup_s.pool": pool_setup,
        "baselines.pool_rows_per_s.w2": len(data) / pooled,
        # What two workers lose against a perfect two-way split of the
        # direct evaluation: fan-out, /dev/shm staging, core sharing.
        "baselines.pool_overhead_share": 1.0 - (direct / 2.0) / pooled,
        "baselines.shm_segments_leaked": leaked,
        "baselines.submit_overhead_share":
            1.0 - direct / statistics.median(raw["walls"]),
    }


def _instrumented_job(network: str, n_cores: int, suffix: str) -> Dict[str, float]:
    """One end-to-end simulated job with the metrics registry attached
    (simulated time throughout)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import UtilizationReport

    registry = MetricsRegistry()
    job = simulate(network, n_cores, SimFig4.samples_per_core,
                   burst_granular=False, metrics=registry)
    elapsed = job["elapsed_s"]
    report = UtilizationReport.from_run(registry, elapsed)
    moved = sum(c.bytes_read + c.bytes_written for c in report.channels)
    dma_bytes = report.dma.bytes_h2d + report.dma.bytes_d2h
    values = {
        "mem.hbm_busy_share":
            statistics.mean(c.busy_fraction for c in report.channels),
        "mem.hbm_gib_per_s": moved / elapsed / GIB,
        "mem.hbm_requests": sum(c.requests for c in report.channels),
        "mem.hbm_refresh_stall_s":
            sum(c.refresh_stall_seconds for c in report.channels),
        # Both directions share one engine and are summed, so the
        # PCIe-bound plateau reads above 1.
        "host.dma_busy_share": report.dma.busy_fraction,
        "host.dma_gib_per_s": dma_bytes / elapsed / GIB,
        "host.dispatch_share":
            sum(p.dispatch_seconds for p in report.pes) / (n_cores * elapsed),
        "host.alloc_failures": sum(m.transient_failures for m in report.memory),
        "accel.pe_busy_share":
            statistics.mean(p.busy_fraction for p in report.pes),
        "accel.jobs": sum(p.jobs for p in report.pes),
    }
    return {f"{name}.{suffix}": value for name, value in values.items()}


def _sim_probes() -> Dict[str, float]:
    from repro.compiler.design import compile_core
    from repro.experiments import run_fig2, run_fig6
    from repro.spn.nips import NIPS_BENCHMARKS, nips_spn

    began = time.perf_counter()
    for network in NIPS_BENCHMARKS:
        compile_core(nips_spn(network), "cfp")
    compile_s = time.perf_counter() - began
    began = time.perf_counter()
    run_fig6(workers=1)
    fig6_s = time.perf_counter() - began
    began = time.perf_counter()
    run_fig2()
    fig2_s = time.perf_counter() - began

    fast = simulate("NIPS10", 8, SimFig4.samples_per_core, burst_granular=False)
    slow = simulate("NIPS10", 8, SimFig4.samples_per_core, burst_granular=True)
    out = {
        "compiler.compile_core_s": compile_s,
        "experiments.fig6_s": fig6_s,
        "experiments.fig2_s": fig2_s,
        "sim.events.ff": fast["events"],
        "sim.events.burst": slow["events"],
        "sim.events_per_host_s.burst": slow["events"] / slow["host_s"],
        "sim.ff_vs_burst_rel_err":
            abs(fast["elapsed_s"] - slow["elapsed_s"]) / slow["elapsed_s"],
    }
    out.update(_instrumented_job("NIPS10", 8, "nips10x8"))
    out.update(_instrumented_job("NIPS80", 1, "nips80x1"))
    return out


def run(workload, state: dict, raw: dict) -> Dict[str, float]:
    """The probes of the layers *workload* loads."""
    if isinstance(workload, Serve):
        return _serving_probes(workload, state)
    if isinstance(workload, Batch):
        probe = _batch_native_probes if workload.native else _batch_plan_probes
        return probe(workload, state, raw)
    return _sim_probes()


# --------------------------------------------------------------------------
# the span budget

#: Layers whose spans are thread time (``workload`` is the root: what
#: its thread did outside every recorded child).  ``request`` spans are
#: latency - time spent waiting - and stay out of the budget.
LAYERS = ("workload", "driver", "serving", "baselines", "compiler", "spn",
          "experiments")


def span_budget(recorder: SpanRecorder) -> Dict[str, float]:
    """Self seconds per layer, and how well the main track adds up."""
    per_layer = spans_mod.layer_self_seconds(recorder.spans)
    unknown = sorted(set(per_layer) - set(LAYERS) - {"request"})
    if unknown:
        raise KeyError(f"spans of unknown layers: {unknown}")
    out = {f"trace.self_s.{layer}": per_layer.get(layer, 0.0) for layer in LAYERS}
    root = next(s for s in recorder.spans if s.layer == "workload")
    out["trace.self_sum_over_wall"] = (
        spans_mod.tree_self_seconds(recorder.spans, root.id)
        / (root.end - root.start))
    out["trace.spans"] = len(recorder.spans)
    return out

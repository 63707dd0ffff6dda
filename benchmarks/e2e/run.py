#!/usr/bin/env python3
"""End-to-end benchmark of the whole stack (see README.md beside this file).

    python3 benchmarks/e2e/run.py --seed 1                  # every workload
    python3 benchmarks/e2e/run.py --seed 1 --workload serve_steady
    python3 benchmarks/e2e/run.py --seed 1 --workload sim_fig4 --trace 1

Each workload runs in its own subprocess (a clean address space for
``setup_s`` and ``peak_rss_mb``), every answer is checked against a
direct evaluation, every metric named in ``BENCHMARK.json`` is printed
with its unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any operation failed or any answer was wrong.

``--trace 0`` (default) measures the end-to-end metrics with nothing
attached.  ``--trace 1`` is a separate run that reports the per-layer
metrics and writes the span file to ``--out``.

Everything the run writes lands under ``.bench_build/e2e/`` of the
checkout: the program's content-keyed build cache (learned SPNs, the
native kernel; built by the first run that needs them, reused after)
and a per-invocation scratch directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import spec as spec_mod  # noqa: E402

ROOT = spec_mod.ROOT
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"
#: Fresh set-up-only processes per run, beside the measured one.
EXTRA_SETUPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="directory for the span file (default: a "
                             "scratch directory removed on exit)")
    # Internal: the per-workload subprocess.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# parent: orchestrate


def child_environment(scratch: Path) -> dict:
    """The subprocess environment: the program's sources on the path,
    its caches and temp files inside the checkout, and none of the
    caller's ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(BUILD / "cache")
    env["TMPDIR"] = str(scratch / "tmp")
    return env


def shm_listing() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn_child(name: str, args, scratch: Path, out_dir: Path,
                result_path: Path, *extra: str) -> int:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", *extra,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out_dir), "--result", str(result_path),
        "--spawned-at", repr(time.monotonic()),
    ]
    return subprocess.run(command, env=child_environment(scratch),
                          stdout=sys.stderr, cwd=ROOT).returncode


def run_workload(name: str, args, scratch: Path, out_dir: Path) -> dict:
    """Run one workload in its subprocess; returns its result record."""
    result_path = scratch / f"{name}.result.json"
    before = shm_listing()
    code = spawn_child(name, args, scratch, out_dir, result_path)
    if code != 0 or not result_path.exists():
        return {"workload": name, "attempted": 1, "failed": 1, "correct": False,
                "reasons": [f"workload process exited with {code}"],
                "metrics": None}
    with open(result_path, encoding="utf-8") as handle:
        record = json.load(handle)
    if not args.trace:
        # setup_s is the median over fresh processes: the measured one
        # plus set-up-only ones.  Repeating set-up inside one process
        # would skip what a process pays once (imports, compiler probes).
        setups = [record["setup_s"]]
        for index in range(EXTRA_SETUPS):
            path = scratch / f"{name}.setup{index}.json"
            if spawn_child(name, args, scratch, out_dir, path,
                           "--setup-only") == 0:
                with open(path, encoding="utf-8") as handle:
                    setups.append(json.load(handle)["setup_s"])
        setups.sort()
        median = setups[len(setups) // 2]
        record["metrics"]["setup_s"]["value"] = median + record["warm_s"]
        record["notes"]["set-up"] = (
            "process start to ready, " + " / ".join(f"{s:.3f}" for s in setups)
            + f" s over {len(setups)} fresh processes, + warm-up "
            f"{record['warm_s']:.3f} s")
    leaked = sorted(shm_listing() - before)
    if leaked:
        record["correct"] = False
        record["failed"] += 1
        record["reasons"].append(f"/dev/shm entries left behind: {leaked}")
    return record


def print_record(record: dict, unit_of: dict) -> None:
    print(f"\n== {record['workload']} ==")
    for key, value in (record.get("notes") or {}).items():
        print(f"  {key}: {value}")
    print(f"  operations attempted {record['attempted']}, "
          f"failed {record['failed']}, correct {record['correct']}")
    for reason in record["reasons"]:
        print(f"  FAILED: {reason}")
    measured = record.get("measured") or ()
    for name, unit in unit_of.items():
        if record["metrics"] is None:
            break
        if name in measured:
            print(f"  {name:<38} {record['metrics'][name]['value']:>16.6g} {unit}")
        else:
            print(f"  {name:<38} {'-':>16} {unit}")


def main_parent(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found - the benchmark measures "
              "the program in src/ and has nothing to run without it",
              file=sys.stderr)
        return 2
    spec = spec_mod.load()
    names = spec_mod.workload_names(spec)
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    unit_of = spec_mod.units(spec, "per_layer" if args.trace else "end_to_end")

    scratch = BUILD / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    out_dir = args.out.resolve() if args.out else scratch / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        print(f"host: nproc={os.cpu_count()} cpu={cpu_model()!r} "
              f"python={platform.python_version()} git={git_sha()}")
        print(f"run: seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} out={out_dir}")
        records = []
        for name in [args.workload] if args.workload else names:
            record = run_workload(name, args, scratch, out_dir)
            if not records and record.get("host"):
                print("host: " + " ".join(
                    f"{k}={v!r}" for k, v in record["host"].items()))
            print_record(record, unit_of)
            records.append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = all(r["correct"] and r["failed"] == 0 for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        # One workload: the contract's flat object.  All of them: one
        # object per workload.
        "metrics": (records[0]["metrics"] if args.workload
                    else {r["workload"]: r["metrics"] for r in records}),
    }
    if summary["metrics"] is None:
        return 1  # the workload process died: no result line
    print(json.dumps(summary))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# child: one workload


def main_child(args) -> int:
    import numpy  # noqa: F401 - the imports a user of the stack pays for
    import repro  # noqa: F401

    from harness import probes
    from harness.spans import SpanRecorder
    from harness.workloads import WORKLOADS, Ctx

    from repro.compiler.native_build import set_native_observability
    from repro.obs.metrics import MetricsRegistry

    imported = time.monotonic()
    spec = spec_mod.load()
    workload = WORKLOADS[args.workload]
    recorder = SpanRecorder() if args.trace else None
    # A traced run spends its budget on two phases: plain, instrumented.
    seconds = args.seconds / (workload.traced_phases if args.trace else 1)
    ctx = Ctx(args.seed, seconds, recorder)

    probes.learn_missing(workload.networks)
    builds = MetricsRegistry()  # native.build_seconds, when set-up builds
    previous = set_native_observability(builds, None)
    began = time.perf_counter()
    try:
        state = workload.setup(ctx)
    finally:
        set_native_observability(*previous)
    setup = (imported - args.spawned_at) + (time.perf_counter() - began)
    probes.record_native_build(builds)
    if args.setup_only:
        workload.teardown(state)
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": setup}, handle)
        return 0
    # Nothing built so far is garbage; freezing it keeps the collector
    # (left on) from re-walking it during the measured phase.
    gc.collect()
    gc.freeze()

    try:
        raw = workload.measure(state, ctx)
        attempted, failed, reasons = workload.check(state, raw)
        # A failed check that belongs to no single operation (the oracle
        # itself disagrees, a simulated rate changed) still fails the run.
        failed = max(failed, bool(reasons))
        numbers = workload.reduce(raw)
        notes = {k: v for k, v in numbers["notes"].items() if v is not None}
        if args.trace:
            layer = workload.instrumented(state, ctx, raw)
            layer.update(probes.run(workload, state, raw))
            layer.update(probes.span_budget(recorder))
            if abs(layer["trace.self_sum_over_wall"] - 1.0) > 0.02:
                failed += 1
                reasons.append("span self times do not add up to the wall time")
            out = Path(args.out) / f"{workload.name}.spans.json"
            recorder.dump(out, {"workload": workload.name, "seed": args.seed,
                                "seconds": args.seconds})
            notes["span file"] = str(out)
            metrics = spec_mod.as_result_metrics(
                layer, spec_mod.units(spec, "per_layer"), fill=True)
            measured = sorted(layer)
        else:
            usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            end_to_end = {
                # The parent replaces this with the median over this and
                # the set-up-only processes.
                "setup_s": setup + raw["warm_s"],
                "peak_rss_mb": usage / 1024.0,
                "op_p50_ms": numbers["op_p50_ms"],
                "op_tail_ms": numbers["op_tail_ms"],
                "samples_per_s": numbers["samples_per_s"],
            }
            metrics = spec_mod.as_result_metrics(
                end_to_end, spec_mod.units(spec, "end_to_end"), fill=False)
            measured = sorted(end_to_end)
    finally:
        workload.teardown(state)

    record = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "reasons": reasons,
        "metrics": metrics,
        "measured": measured,
        "notes": notes,
        "host": probes.host_fingerprint(),
        "setup_s": setup,
        "warm_s": raw["warm_s"],
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(main_child(arguments) if arguments.child else main_parent(arguments))

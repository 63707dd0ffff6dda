#!/usr/bin/env python3
"""Measure the benchmark's own steadiness, the way its gate does.

    python3 benchmarks/e2e/spread.py --sets 2 --runs 10

Each set runs every workload ``--runs`` times, each run on another
seed, and reports per (workload, end-to-end metric) the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread has to stay within the metric's bound in ``BENCHMARK.json``
(aim: a third of it), and from one set to the next no median may
worsen by more than the bound.  The output is the markdown table kept
in README.md; re-record it whenever a workload or a reducer changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import reduce, spec as spec_mod  # noqa: E402


def run_set(spec: dict, workloads, seeds) -> dict:
    """``{workload: {metric: [values]}}`` over one run per seed."""
    values: dict = {}
    for workload in workloads:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=spec_mod.ROOT)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            for name, entry in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    entry["value"])
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args()
    spec = spec_mod.load()
    workloads = args.workload or spec_mod.workload_names(spec)
    sets = []
    for index in range(args.sets):
        first = args.first_seed + index * args.runs
        sets.append(run_set(spec, workloads, range(first, first + args.runs)))

    heads = " | ".join(f"set {i + 1} median | spread" for i in range(args.sets))
    print(f"| workload | metric | bound | {heads} | worsened |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|")
    ok = True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for values in sets:
                sample = values[workload][name]
                spread = reduce.iqr_share(sample)
                medians.append(statistics.median(sample))
                cells.append(f"{medians[-1]:.5g} | {spread * 100:.2f} %")
                # The gate exempts the spread (not the drift) of setup_s.
                ok &= spread <= bound or name == "setup_s"
            drift = medians[-1] / medians[0] - 1.0
            if metric["better"] == "higher":
                drift = -drift
            ok &= drift <= bound
            print(f"| {workload} | {name} | {bound * 100:g} % | "
                  + " | ".join(cells) + f" | {drift * 100:+.2f} % |")
    print("\nall within bounds" if ok else "\nOUT OF BOUNDS", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

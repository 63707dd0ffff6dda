"""The benchmark's contract, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the single list of workload and metric names;
the harness reports exactly those names and refuses to report any
other, so the file and the code cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: The checkout this harness sits in (``benchmarks/e2e/harness/`` up 3).
ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: dict) -> List[str]:
    return [entry["name"] for entry in spec["workloads"]]


def units(spec: dict, kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def as_result_metrics(values: Dict[str, float], unit_of: Dict[str, str],
                      *, fill: bool) -> Dict[str, dict]:
    """Shape *values* into the result line's ``metrics`` object.

    Every name of *unit_of* appears exactly once.  An unknown name in
    *values* is a harness bug and raises.  With *fill*, names the
    workload did not measure read 0.0 — a layer the workload never
    entered did no work there; without it a missing name raises,
    because an end-to-end metric must be measured on every workload.
    """
    unknown = sorted(set(values) - set(unit_of))
    if unknown:
        raise KeyError(f"metrics not named in BENCHMARK.json: {unknown}")
    missing = sorted(set(unit_of) - set(values))
    if missing and not fill:
        raise KeyError(f"workload did not measure: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in unit_of.items()
    }

"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro <artifact> [options]

where ``<artifact>`` is one of ``fig2``, ``table1``, ``fig4``,
``fig5``, ``fig6``, ``speedups``, ``outlook``, ``ablations``,
``plans``, ``report``, ``trace``, ``cache``, ``serve`` or ``all``.
Each command
prints the same rows/series the paper reports (see EXPERIMENTS.md for
the interpretation); ``report`` prints the per-channel/per-PE
utilization of one instrumented run (see docs/observability.md), or —
with ``--host`` — the worker/shared-memory utilization of a real
zero-copy executor run on the local CPU (see docs/cpu_baselines.md).

``trace`` exports one instrumented simulation run *and* one real
executor run as a single Chrome/Perfetto JSON file (``--out``); it is
excluded from ``all`` because it writes a file.  ``cache`` reports the
on-disk native-kernel cache and — with ``--prune [--max-bytes N]`` —
evicts least-recently-used artifacts down to a byte budget (see
docs/native_backend.md); it is excluded from ``all`` too.

``serve`` sweeps the online micro-batching broker with open-loop
traffic at a ladder of offered rates and prints the serving result
table — goodput, p50/p95/p99 latency, shed count and mean batch size
per point (see docs/serving.md); ``--selftest`` is the CI smoke
contract and exits nonzero when the serve path misbehaves.  Also
excluded from ``all``: it measures live wall-clock behaviour.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

__all__ = ["main"]


def _cmd_fig2(args) -> str:
    from repro.experiments import format_fig2, run_fig2

    return format_fig2(run_fig2(n_requests=args.requests))


def _cmd_table1(args) -> str:
    from repro.experiments import format_table1, run_table1

    return format_table1(run_table1())


def _cmd_fig4(args) -> str:
    from repro.experiments import format_fig4, run_fig4

    return format_fig4(run_fig4(samples_per_core=args.samples))


def _cmd_fig5(args) -> str:
    from repro.experiments import format_fig5, run_fig5

    return format_fig5(run_fig5())


def _cmd_fig6(args) -> str:
    from repro.experiments import format_fig6, run_fig6

    return format_fig6(
        run_fig6(samples_per_core=args.samples, cpu_backend=args.cpu_backend)
    )


def _cmd_speedups(args) -> str:
    from repro.experiments import format_speedups, run_fig6, run_speedups

    fig6 = run_fig6(samples_per_core=args.samples, cpu_backend=args.cpu_backend)
    return format_speedups(run_speedups(fig6))


def _cmd_outlook(args) -> str:
    from repro.experiments import format_outlook, run_outlook

    return format_outlook(run_outlook())


def _cmd_formats(args) -> str:
    from repro.experiments.format_comparison import (
        format_format_comparison,
        run_format_comparison,
    )

    rows = run_format_comparison(n_samples=args.samples // 500 or 500)
    return format_format_comparison(rows)


def _cmd_sensitivity(args) -> str:
    from repro.experiments import format_sensitivity, run_sensitivity

    return format_sensitivity(run_sensitivity())


def _cmd_roofline(args) -> str:
    from repro.experiments import format_roofline, run_roofline

    return format_roofline(run_roofline(host_rows=min(args.samples, 200_000)))


def _cmd_plans(args) -> str:
    from repro.experiments import format_plan_speedup, run_plan_speedup

    n_samples = max(args.samples // 25, 1000)
    return format_plan_speedup(run_plan_speedup(n_samples=n_samples))


def _cmd_report(args) -> str:
    from repro.experiments import (
        format_utilization,
        run_host_utilization,
        run_utilization,
    )

    if args.host:
        report = run_host_utilization(
            args.benchmark,
            n_samples=args.samples,
            n_workers=args.host_workers,
            dtype=args.dtype,
        )
        heading = f"{args.benchmark} (host CPU executor)"
    else:
        report = run_utilization(
            args.benchmark,
            args.cores,
            threads_per_pe=args.threads,
            samples_per_core=args.samples,
            block_bytes=args.block_bytes,
        )
        heading = args.benchmark
    if args.json:
        return report.to_json()
    return format_utilization(report, benchmark=heading)


def _cmd_ablations(args) -> str:
    from repro.experiments.ablations import (
        format_ablation,
        run_block_size_ablation,
        run_crossbar_ablation,
        run_thread_ablation,
    )

    return format_ablation(
        run_block_size_ablation(n_samples=args.samples),
        run_thread_ablation(samples_per_core=args.samples // 2),
        run_crossbar_ablation(),
    )


def _cmd_trace(args) -> str:
    from repro.experiments.utilization import (
        run_traced_host_utilization,
        run_traced_utilization,
    )
    from repro.obs.trace_export import HOST_PID, ChromeTraceBuilder

    # The span tracer forces the burst-granular core model, so cap the
    # instrumented runs at 200k samples regardless of --samples.
    samples = min(args.samples, 200_000)
    sim = run_traced_utilization(
        args.benchmark,
        args.cores,
        threads_per_pe=args.threads,
        samples_per_core=samples,
        block_bytes=args.block_bytes,
    )
    host = run_traced_host_utilization(
        args.benchmark, n_samples=samples, n_workers=args.host_workers
    )
    builder = ChromeTraceBuilder()
    builder.add_tracer(sim.tracer)
    builder.add_metrics(sim.metrics, at_seconds=sim.elapsed_seconds)
    builder.add_host_spans(host.host_spans)
    builder.add_metrics(
        host.metrics, at_seconds=host.elapsed_seconds, pid=HOST_PID
    )
    summary = builder.write(args.out)
    return (
        f"wrote {summary['path']}: {summary['n_events']} events "
        f"({summary['n_spans']} spans, {summary['n_counters']} counter "
        f"samples)\n"
        f"  sim clock:  {args.benchmark} x{args.cores} cores, "
        f"{samples} samples/core (simulated {sim.elapsed_seconds * 1e3:.2f} ms)\n"
        f"  wall clock: {samples} rows through the zero-copy executor "
        f"({host.elapsed_seconds * 1e3:.2f} ms)\n"
        "open it at https://ui.perfetto.dev or chrome://tracing"
    )


def _cmd_serve(args):
    from repro.serving.scenarios import DEFAULT_RATES, run_serve, run_serve_selftest

    if args.selftest:
        return run_serve_selftest(
            args.benchmark,
            telemetry_out=args.telemetry_out,
            trace_out=args.trace_out,
        )
    rates = (
        tuple(float(r) for r in args.rates.split(","))
        if args.rates
        else DEFAULT_RATES
    )
    text, _ = run_serve(
        args.benchmark,
        rates=rates,
        duration_s=args.duration,
        arrival=args.arrival,
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        max_queue_rows=args.max_queue_rows,
        n_lanes=args.lanes,
        slo_ms=args.slo_ms,
        n_workers=args.host_workers,
        trace_out=args.trace_out,
        telemetry_out=args.telemetry_out,
        metrics_port=args.metrics_port,
    )
    return text


def _cmd_cache(args) -> str:
    from repro.compiler.native_build import (
        DEFAULT_CACHE_MAX_BYTES,
        native_cache_stats,
        prune_native_cache,
    )

    def _mib(n: int) -> str:
        return f"{n / (1024 * 1024):.1f} MiB"

    lines = []
    before = native_cache_stats()
    lines.append(
        f"native kernel cache at {before['path']}: "
        f"{before['artifacts']} artifact(s), {_mib(before['bytes'])}"
    )
    if args.prune:
        budget = (
            args.max_bytes if args.max_bytes is not None
            else DEFAULT_CACHE_MAX_BYTES
        )
        report = prune_native_cache(budget)
        lines.append(
            f"pruned to {_mib(budget)} budget (LRU by mtime): removed "
            f"{report['removed']} artifact(s) / "
            f"{_mib(report['removed_bytes'])}, kept {report['kept']} / "
            f"{_mib(report['kept_bytes'])}"
        )
    elif args.max_bytes is not None:
        lines.append("--max-bytes has no effect without --prune")
    return "\n".join(lines)


_COMMANDS: Dict[str, Callable] = {
    "fig2": _cmd_fig2,
    "table1": _cmd_table1,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "speedups": _cmd_speedups,
    "outlook": _cmd_outlook,
    "ablations": _cmd_ablations,
    "formats": _cmd_formats,
    "sensitivity": _cmd_sensitivity,
    "roofline": _cmd_roofline,
    "plans": _cmd_plans,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
}

#: Commands excluded from ``all``: they write files (``trace``),
#: mutate on-disk state (``cache`` with ``--prune`` deletes
#: artifacts), or measure live wall-clock behaviour that a batch
#: regeneration run has no use for and can exit nonzero by design
#: (``serve``, whose ``--selftest`` is a gate).
_NOT_IN_ALL = frozenset({"trace", "cache", "serve"})


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures from the models.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_COMMANDS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=500_000,
        help="samples per core for DES-backed artifacts (default 500k)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=16,
        help="requests per point for the Fig. 2 sweep (default 16)",
    )
    parser.add_argument(
        "--cpu-backend",
        choices=["model", "measured"],
        default="model",
        help="fig6/speedups CPU column: calibrated Xeon model (default) "
        "or a measured zero-copy-executor run on this machine",
    )
    report = parser.add_argument_group("report options")
    report.add_argument(
        "--benchmark",
        default="NIPS10",
        help="benchmark for the utilization report (default NIPS10)",
    )
    report.add_argument(
        "--cores",
        type=int,
        default=2,
        help="accelerator core count for the utilization report (default 2)",
    )
    report.add_argument(
        "--threads",
        type=int,
        default=2,
        help="control threads per PE for the utilization report (default 2)",
    )
    report.add_argument(
        "--block-bytes",
        type=int,
        default=1 << 20,
        help="streaming block size for the utilization report (default 1 MiB)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the utilization report as JSON instead of text",
    )
    report.add_argument(
        "--host",
        action="store_true",
        help="report on a real zero-copy-executor run on this machine's "
        "CPU instead of the simulated accelerator",
    )
    report.add_argument(
        "--host-workers",
        type=int,
        default=None,
        help="executor worker count for --host (default: all CPUs)",
    )
    report.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help="evaluation precision for --host (default float64)",
    )
    trace = parser.add_argument_group("trace options")
    trace.add_argument(
        "--out",
        default="run.perfetto.json",
        help="output path for the Chrome/Perfetto trace "
        "(default run.perfetto.json)",
    )
    serve = parser.add_argument_group("serve options")
    serve.add_argument(
        "--selftest",
        action="store_true",
        help="short low-load Poisson run with hard assertions (p99 under "
        "SLO, zero shed); exits 1 on failure - the CI smoke contract",
    )
    serve.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated offered request rates (requests/s) for the "
        "serving sweep (default 200,1000,4000)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="seconds of traffic per rate point (default 1.0)",
    )
    serve.add_argument(
        "--arrival",
        choices=["poisson", "diurnal"],
        default="poisson",
        help="arrival process for the load generator (default poisson)",
    )
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=512,
        help="flush a micro-batch at this many rows (default 512)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=5.0,
        help="flush a micro-batch once its oldest request waited this "
        "long (default 5 ms)",
    )
    serve.add_argument(
        "--max-queue-rows",
        type=int,
        default=4096,
        help="admission-control bound on queued rows; beyond it requests "
        "are shed (default 4096)",
    )
    serve.add_argument(
        "--lanes",
        type=int,
        default=2,
        help="micro-batches kept in flight concurrently over reentrant "
        "executor lanes; 1 disables pipelining (default 2)",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=50.0,
        help="latency SLO the result table grades p99 against "
        "(default 50 ms)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also export the serving run (batch + worker spans, "
        "serving.* counters, sampled per-request flow arrows) as a "
        "Chrome/Perfetto JSON trace",
    )
    serve.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="stream telemetry snapshots (metrics + per-stage latency "
        "histograms + SLO burn state) to this JSON file during the run",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT during "
        "the sweep (/metrics Prometheus text, /telemetry.json; 0 picks "
        "a free port)",
    )
    cache = parser.add_argument_group("cache options")
    cache.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used native kernel artifacts until "
        "the cache fits --max-bytes",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="cache byte budget for --prune (default 256 MiB)",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.artifact == "all":
        names = [name for name in sorted(_COMMANDS) if name not in _NOT_IN_ALL]
    else:
        names = [args.artifact]
    exit_code = 0
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 72 + "\n")
        result = _COMMANDS[name](args)
        if isinstance(result, tuple):
            text, code = result
            exit_code = exit_code or code
        else:
            text = result
        print(text)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""Serving scenarios: the ``repro serve`` entry points.

Glue between the broker, the load generator and the CLI: build one
persistent :class:`~repro.baselines.executor.ParallelPlanExecutor`
for a benchmark SPN, sweep it with open-loop traffic at a ladder of
offered rates, and render the result table the paper-style question
needs — *where does delivered throughput saturate, and what happens to
latency and batch size on the way there?*

Also home of ``--selftest``, the CI smoke contract: a short low-load
Poisson run mixing likelihood, marginal and missing-value queries must
meet its p99 SLO with zero shed requests **and** return every answer
bit-identical to the plan evaluator, proving the whole serve path
(asyncio broker → arena ring → executor lanes → result scatter) and
its signature-keyed batch isolation end to end in a few seconds.  With
telemetry on, the selftest additionally cross-checks the per-stage
latency histograms against the end-to-end one (the stage medians must
sum close to the e2e median — the decomposition is additive by
construction) and that sampled requests exported as connected Perfetto
flows.
"""

from __future__ import annotations

import asyncio
import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.obs.exporter import (
    PeriodicTelemetryWriter,
    SLOTracker,
    TelemetryServer,
    TelemetrySnapshotter,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.rtrace import STAGE_HISTOGRAMS, RequestTraceRecorder, add_request_flows
from repro.obs.trace_export import HOST_PID, ChromeTraceBuilder, HostSpanRecorder
from repro.serving.broker import MicroBatchBroker
from repro.serving.loadgen import (
    LoadResult,
    diurnal_arrivals,
    format_load_results,
    poisson_arrivals,
    run_open_loop,
)

__all__ = ["run_serve", "run_serve_selftest"]

#: Offered-rate ladder of the default ``repro serve`` sweep.
DEFAULT_RATES: Tuple[float, ...] = (200.0, 1000.0, 4000.0)

#: Default in-flight batch lanes for serving sweeps (the broker's own
#: default stays 1; sweeps want the pipelined datapath).
DEFAULT_LANES = 2


class _SweepRunner:
    """One event loop for a whole sweep.

    ``asyncio.Runner`` (3.11+) when available, a bare
    ``new_event_loop``/``run_until_complete`` pair otherwise — either
    way every rate point reuses the same loop, so broker/lane state
    and flush timers live on one loop that is created once and torn
    down deterministically at the end of the sweep, instead of a fresh
    ``asyncio.run`` universe per point.
    """

    def __init__(self):
        runner_cls = getattr(asyncio, "Runner", None)
        if runner_cls is not None:
            self._runner = runner_cls()
            self._loop = None
        else:  # pragma: no cover - Python < 3.11
            self._runner = None
            self._loop = asyncio.new_event_loop()

    def run(self, coro):
        """Run one coroutine to completion on the sweep's loop."""
        if self._runner is not None:
            return self._runner.run(coro)
        return self._loop.run_until_complete(coro)  # pragma: no cover

    def close(self) -> None:
        """Tear the loop down (cancels stragglers, closes the loop)."""
        if self._runner is not None:
            self._runner.close()
        else:  # pragma: no cover - Python < 3.11
            self._loop.close()

    def __enter__(self) -> "_SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _arrival_trace(arrival: str, rate: float, duration_s: float, seed: int):
    if arrival == "poisson":
        return poisson_arrivals(rate, duration_s, seed=seed)
    if arrival == "diurnal":
        return diurnal_arrivals(rate, duration_s, seed=seed)
    raise ServingError(
        f"unknown arrival process {arrival!r}; pick 'poisson' or 'diurnal'"
    )


def run_serve(
    benchmark: str = "NIPS10",
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    duration_s: float = 1.0,
    arrival: str = "poisson",
    max_batch_rows: int = 512,
    max_wait_ms: float = 5.0,
    max_queue_rows: int = 4096,
    n_lanes: int = DEFAULT_LANES,
    slo_ms: Optional[float] = 50.0,
    n_workers: Optional[int] = 1,
    backend: Optional[str] = None,
    trace_out: Optional[str] = None,
    telemetry_out: Optional[str] = None,
    metrics_port: Optional[int] = None,
    trace_sample_every: int = 16,
    seed: int = 7,
) -> Tuple[str, List[LoadResult]]:
    """Sweep one benchmark's broker across an offered-rate ladder.

    One executor and one event loop serve every rate point; each point
    gets a fresh broker (and reuses the executor's pooled lanes) so
    its counters reduce cleanly to a
    :class:`~repro.serving.loadgen.LoadResult` row.  *n_lanes* batches
    are kept in flight concurrently over the executor's reentrant
    lanes — the pipelined zero-copy datapath (docs/serving.md).

    With *trace_out* the run's wall-clock spans — per-lane broker
    batches next to executor worker shards — final ``serving.*``
    counters **and** 1-in-*trace_sample_every* sampled requests as
    connected flow arrows are exported as a Chrome/Perfetto JSON file.
    With *telemetry_out* a JSON telemetry snapshot (metrics registry +
    per-stage histograms + SLO burn state) is rewritten every 500 ms
    during the sweep and once at the end; with *metrics_port* a
    localhost HTTP endpoint serves ``/metrics`` (Prometheus text) and
    ``/telemetry.json`` live for the duration of the sweep (port 0
    picks a free port).  When either telemetry sink is active and an
    SLO is set, one rolling-window :class:`~repro.obs.exporter.
    SLOTracker` spans the whole sweep — its burn rate is the streaming
    view; without telemetry each rate point gets a private tracker so
    the table's ``burn`` column is per-point.  Returns
    ``(table text, results)``.
    """
    from repro.baselines.executor import ParallelPlanExecutor
    from repro.experiments.utilization import host_cpu_batch
    from repro.spn.nips import nips_benchmark

    if duration_s <= 0:
        raise ServingError(f"duration_s must be > 0, got {duration_s}")
    if not rates:
        raise ServingError("at least one offered rate is required")
    if n_lanes < 1:
        raise ServingError(f"n_lanes must be >= 1, got {n_lanes}")
    bench = nips_benchmark(benchmark)
    data = host_cpu_batch(benchmark, 4096)
    recorder = HostSpanRecorder() if trace_out is not None else None
    rtrace = (
        RequestTraceRecorder(sample_every=trace_sample_every)
        if trace_out is not None
        else None
    )
    results: List[LoadResult] = []
    # One registry for the whole sweep (counters accumulate across rate
    # points; per-point numbers come from each broker's own stats) so
    # the exported trace carries exactly one track per serving.* name.
    metrics = MetricsRegistry()
    telemetry_on = telemetry_out is not None or metrics_port is not None
    sweep_tracker = (
        SLOTracker(slo_ms) if telemetry_on and slo_ms is not None else None
    )
    writer = server = None
    if telemetry_on:
        snapshotter = TelemetrySnapshotter(metrics, slo=sweep_tracker)
        if telemetry_out is not None:
            writer = PeriodicTelemetryWriter(
                snapshotter, telemetry_out, interval_s=0.5
            ).start()
        if metrics_port is not None:
            server = TelemetryServer(snapshotter, port=metrics_port).start()
    try:
        with ParallelPlanExecutor(
            bench.spn,
            n_workers=n_workers,
            backend=backend,
            max_lanes=n_lanes + 1,
            host_tracer=recorder,
        ) as executor, _SweepRunner() as runner:
            for index, rate in enumerate(rates):
                arrivals = _arrival_trace(arrival, float(rate), duration_s,
                                          seed + index)

                async def run_point() -> LoadResult:
                    async with MicroBatchBroker(
                        executor,
                        max_batch_rows=max_batch_rows,
                        max_wait_ms=max_wait_ms,
                        max_queue_rows=max_queue_rows,
                        n_lanes=n_lanes,
                        metrics=metrics,
                        host_tracer=recorder,
                        rtrace=rtrace,
                    ) as broker:
                        return await run_open_loop(
                            broker,
                            data,
                            arrivals,
                            name=f"{arrival}@{rate:g}",
                            slo_ms=slo_ms,
                            slo_tracker=sweep_tracker,
                        )

                results.append(runner.run(run_point()))
    finally:
        if writer is not None:
            writer.stop()
        if server is not None:
            server.stop()

    lines = [
        f"Serving sweep - {benchmark}, {arrival} arrivals, "
        f"{duration_s:g} s/point, SLO "
        f"{'-' if slo_ms is None else f'{slo_ms:g} ms'} "
        f"(max_batch_rows={max_batch_rows}, max_wait_ms={max_wait_ms:g}, "
        f"max_queue_rows={max_queue_rows}, n_lanes={n_lanes})",
        "",
        format_load_results(results),
    ]
    if sweep_tracker is not None:
        state = sweep_tracker.state()
        lines.append(
            f"\nSLO burn rate (rolling {state['window_s']:g} s window, "
            f"target {state['target'] * 100:g}%): "
            f"{state['burn_rate']:.2f}x budget "
            f"({state['window_violations']}/{state['window_requests']} "
            "over SLO, shed included)"
        )
    if trace_out is not None:
        builder = ChromeTraceBuilder()
        builder.add_host_spans(recorder.spans)
        elapsed = max((span.end for span in recorder.spans), default=0.0)
        builder.add_metrics(metrics, at_seconds=elapsed, pid=HOST_PID)
        n_requests = add_request_flows(
            builder, rtrace.traces, epoch=recorder.epoch
        )
        summary = builder.write(trace_out)
        lines.append(
            f"\nwrote {summary['path']}: {summary['n_events']} events "
            f"({summary['n_spans']} spans, {n_requests} sampled request "
            f"flows of {rtrace.seen} requests) - "
            "open at https://ui.perfetto.dev"
        )
    if telemetry_out is not None:
        lines.append(
            f"wrote {telemetry_out}: telemetry snapshot x{writer.n_writes} "
            "(metrics + stage histograms + SLO state)"
        )
    if server is not None:
        lines.append(
            f"served telemetry at {server.url}/metrics during the sweep"
        )
    return "\n".join(lines), results


#: Selftest contract: low offered load on a small SPN must sail under
#: a generous SLO with zero shed requests — an end-to-end liveness
#: check, not a performance gate (CI runners are slow and shared).
SELFTEST_RATE_RPS = 200.0
SELFTEST_DURATION_S = 1.0
SELFTEST_SLO_MS = 250.0

#: The selftest's interleaved traffic: plain likelihood, a marginal
#: query and a missing-value query, cycling per request — every
#: signature-keyed batch path is exercised in one run.
SELFTEST_QUERY_MIX: Tuple[
    Tuple[Optional[Tuple[int, ...]], Optional[float]], ...
] = (
    (None, None),
    ((0, 1), None),
    (None, None),
    (None, -1.0),
)


def run_serve_selftest(
    benchmark: str = "NIPS10",
    *,
    telemetry_out: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> Tuple[str, int]:
    """Short mixed-traffic run with hard assertions; ``(text, exit code)``.

    Exit 0 iff every request was answered (zero shed, zero failed),
    p99 latency stayed under the selftest SLO, every returned
    value — likelihood, marginal and missing-value queries interleaved
    per :data:`SELFTEST_QUERY_MIX` — is bit-identical to
    :func:`~repro.spn.plan_eval.plan_log_likelihood` on the same row
    (proving signature-keyed batch isolation end to end, *with the
    full telemetry stack attached* — tracing must not perturb
    results), **and** the telemetry itself is coherent: every answered
    request appears in each per-stage histogram, the five stage
    medians sum to within 10% of the end-to-end median (the stage
    decomposition is additive per request), and at least one sampled
    request completed with a full stamp chain (flow-exportable).

    *telemetry_out* writes the final telemetry JSON snapshot;
    *trace_out* writes the Perfetto trace with the sampled request
    flows — both are what CI uploads as artifacts.
    """
    from repro.baselines.executor import ParallelPlanExecutor
    from repro.experiments.utilization import host_cpu_batch
    from repro.spn.nips import nips_benchmark
    from repro.spn.plan import get_plan
    from repro.spn.plan_eval import plan_log_likelihood

    bench = nips_benchmark(benchmark)
    data = host_cpu_batch(benchmark, 1024)
    plan = get_plan(bench.spn)
    arrivals = poisson_arrivals(
        SELFTEST_RATE_RPS, SELFTEST_DURATION_S, seed=11
    )
    # Reference answers, one batch per signature in the mix, computed
    # outside the serving stack entirely.
    reference = {
        signature: plan_log_likelihood(
            plan, data, marginalized=signature[0], missing_value=signature[1]
        )
        for signature in set(SELFTEST_QUERY_MIX)
    }
    answers: dict = {}
    metrics = MetricsRegistry()
    recorder = HostSpanRecorder()
    rtrace = RequestTraceRecorder()  # default 1-in-16 sampling
    slo_tracker = SLOTracker(SELFTEST_SLO_MS, window_s=60.0)

    async def run_point() -> LoadResult:
        async with MicroBatchBroker(
            executor,
            max_wait_ms=5.0,
            n_lanes=DEFAULT_LANES,
            metrics=metrics,
            host_tracer=recorder,
            rtrace=rtrace,
        ) as broker:
            return await run_open_loop(
                broker,
                data,
                arrivals,
                name=f"mixed@{SELFTEST_RATE_RPS:g}",
                slo_ms=SELFTEST_SLO_MS,
                query_mix=SELFTEST_QUERY_MIX,
                on_result=lambda i, value: answers.__setitem__(i, value),
                slo_tracker=slo_tracker,
            )

    with ParallelPlanExecutor(
        bench.spn,
        n_workers=1,
        max_lanes=DEFAULT_LANES + 1,
        host_tracer=recorder,
    ) as executor, _SweepRunner() as runner:
        result = runner.run(run_point())

    problems = []
    if result.n_rejected:
        problems.append(f"{result.n_rejected} request(s) shed at low load")
    if result.n_failed:
        problems.append(f"{result.n_failed} request(s) failed")
    if not result.slo_met:
        problems.append(
            f"p99 {result.p99_ms:.1f} ms over the {SELFTEST_SLO_MS:g} ms SLO"
        )
    n_wrong = sum(
        1
        for i, value in answers.items()
        if value
        != reference[SELFTEST_QUERY_MIX[i % len(SELFTEST_QUERY_MIX)]][
            i % data.shape[0]
        ]
    )
    if n_wrong:
        problems.append(
            f"{n_wrong}/{len(answers)} answer(s) differ from plan_eval "
            "(signature-keyed batch isolation broken)"
        )
    # Telemetry coherence: the stage histograms must account for every
    # answered request, and the additive stage decomposition must
    # reconstruct the e2e distribution's centre.
    e2e = metrics.histogram("serving.e2e")
    stage_p50s = []
    for stage_name, _, _ in STAGE_HISTOGRAMS:
        hist = metrics.histogram(f"serving.{stage_name}")
        if hist.count != result.n_ok:
            problems.append(
                f"serving.{stage_name} histogram holds {hist.count} "
                f"samples for {result.n_ok} answered requests"
            )
        stage_p50s.append(hist.p50)
    if e2e.count != result.n_ok:
        problems.append(
            f"serving.e2e histogram holds {e2e.count} samples for "
            f"{result.n_ok} answered requests"
        )
    stage_sum = sum(stage_p50s)
    if math.isnan(stage_sum) or math.isnan(e2e.p50):
        problems.append("stage/e2e histograms are empty")
    elif abs(stage_sum - e2e.p50) > max(0.10 * e2e.p50, 1e-3):
        problems.append(
            f"stage medians sum to {stage_sum * 1e3:.2f} ms vs e2e median "
            f"{e2e.p50 * 1e3:.2f} ms (> 10% apart; the stage decomposition "
            "no longer partitions end-to-end latency)"
        )
    n_flows = len(rtrace.completed())
    if not n_flows:
        problems.append(
            f"no sampled request completed its stamp chain "
            f"({rtrace.seen} requests seen, {rtrace.sampled} sampled)"
        )
    verdict = (
        "serve selftest PASS "
        f"({len(answers)} mixed queries bit-identical to plan_eval with "
        f"telemetry on, stage medians sum "
        f"{stage_sum * 1e3:.2f} ms ~ e2e p50 {e2e.p50 * 1e3:.2f} ms, "
        f"{n_flows} request flows sampled)"
        if not problems
        else "serve selftest FAIL: " + "; ".join(problems)
    )
    lines = [format_load_results([result])]
    if telemetry_out is not None:
        snapshotter = TelemetrySnapshotter(metrics, slo=slo_tracker)
        with open(telemetry_out, "w") as handle:
            handle.write(snapshotter.to_json())
        lines.append(f"wrote {telemetry_out}: telemetry snapshot")
    if trace_out is not None:
        builder = ChromeTraceBuilder()
        builder.add_host_spans(recorder.spans)
        elapsed = max((span.end for span in recorder.spans), default=0.0)
        builder.add_metrics(metrics, at_seconds=elapsed, pid=HOST_PID)
        add_request_flows(builder, rtrace.traces, epoch=recorder.epoch)
        summary = builder.write(trace_out)
        lines.append(
            f"wrote {summary['path']}: {summary['n_events']} events "
            f"({summary['n_flows']} flow events)"
        )
    text = "\n".join(lines)
    return f"{text}\n\n{verdict}", 0 if not problems else 1

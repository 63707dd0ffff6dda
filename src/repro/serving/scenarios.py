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
its signature-keyed batch isolation end to end in a few seconds.  The
selftest also checks the per-stage latency histograms against the
end-to-end one (the stage totals must sum to the e2e total — the
decomposition partitions every request exactly) and that sampled
requests exported as connected Perfetto flows.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry
from repro.obs.rtrace import (
    STAGE_HISTOGRAMS,
    RequestTraceRecorder,
    add_request_flows,
    stage_partition_problems,
)
from repro.obs.trace_export import HOST_PID, ChromeTraceBuilder, SpanRecorder
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


def _write_serving_trace(path, recorder, metrics, rtrace):
    """Write one serving run's Perfetto trace; ``(summary, n flows)``.

    Host spans, the registry's counters as counter tracks and its
    end-of-run snapshot under ``otherData["metrics"]``, and the sampled
    requests as flow arrows.
    """
    builder = ChromeTraceBuilder()
    builder.add_spans(recorder.spans, pid=HOST_PID, category="host")
    elapsed = max((span.end for span in recorder.spans), default=0.0)
    builder.add_metrics(metrics, at_seconds=elapsed, pid=HOST_PID)
    n_requests = add_request_flows(builder, rtrace.traces, epoch=recorder.epoch)
    return builder.write(path), n_requests


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
    counters, 1-in-*trace_sample_every* sampled requests as connected
    flow arrows **and** the sweep's end-of-run metrics snapshot
    (per-stage latency histograms included, under
    ``otherData["metrics"]``) are exported as one Chrome/Perfetto JSON
    file.  The executor's ``executor.*`` and the native backend's
    ``native.*`` counters land in the same registry as the brokers'
    ``serving.*`` ones.  Returns ``(table text, results)``.
    """
    from repro.baselines.executor import ParallelPlanExecutor
    from repro.compiler.native_build import set_native_observability
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
    recorder = (
        SpanRecorder(epoch=time.perf_counter())
        if trace_out is not None
        else None
    )
    rtrace = (
        RequestTraceRecorder(sample_every=trace_sample_every)
        if trace_out is not None
        else None
    )
    results: List[LoadResult] = []
    # One registry for the whole sweep (counters accumulate across rate
    # points; per-point numbers come from each broker's own stats) so
    # the exported trace carries exactly one track per serving.* name.
    # Only the trace reads it, so without one no broker records into it.
    metrics = MetricsRegistry() if trace_out is not None else None
    previous_sinks = (
        set_native_observability(metrics, recorder)
        if trace_out is not None
        else None
    )
    try:
        with ParallelPlanExecutor(
            bench.spn,
            n_workers=n_workers,
            backend=backend,
            max_lanes=n_lanes + 1,
            metrics=metrics,
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
                        )

                results.append(runner.run(run_point()))
    finally:
        if previous_sinks is not None:
            set_native_observability(*previous_sinks)

    lines = [
        f"Serving sweep - {benchmark}, {arrival} arrivals, "
        f"{duration_s:g} s/point, SLO "
        f"{'-' if slo_ms is None else f'{slo_ms:g} ms'} "
        f"(max_batch_rows={max_batch_rows}, max_wait_ms={max_wait_ms:g}, "
        f"max_queue_rows={max_queue_rows}, n_lanes={n_lanes})",
        "",
        format_load_results(results),
    ]
    if trace_out is not None:
        summary, n_requests = _write_serving_trace(
            trace_out, recorder, metrics, rtrace
        )
        lines.append(
            f"\nwrote {summary['path']}: {summary['n_events']} events "
            f"({summary['n_spans']} spans, {n_requests} sampled request "
            f"flows of {rtrace.seen} requests) - "
            "open at https://ui.perfetto.dev"
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
    results), **and** the telemetry itself is coherent: the stage
    histograms partition the e2e one
    (:func:`~repro.obs.rtrace.stage_partition_problems`: one sample per
    answered request in each, stage totals summing to the e2e total),
    and at least one sampled request completed with a full stamp chain
    (flow-exportable).  The stage and e2e medians are printed for
    information only: medians do not add.

    *trace_out* writes the Perfetto trace with the sampled request
    flows and the end-of-run metrics — what CI uploads as an artifact.
    """
    from repro.baselines.executor import ParallelPlanExecutor
    from repro.compiler.native_build import set_native_observability
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
    recorder = SpanRecorder(epoch=time.perf_counter())
    rtrace = RequestTraceRecorder()  # default 1-in-16 sampling

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
            )

    previous_sinks = set_native_observability(metrics, recorder)
    try:
        with ParallelPlanExecutor(
            bench.spn,
            n_workers=1,
            max_lanes=DEFAULT_LANES + 1,
            metrics=metrics,
            host_tracer=recorder,
        ) as executor, _SweepRunner() as runner:
            result = runner.run(run_point())
    finally:
        set_native_observability(*previous_sinks)

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
    # Telemetry coherence, read from the snapshot the trace embeds: the
    # stage histograms must partition the e2e one request by request.
    histograms = metrics.snapshot()["histograms"]
    problems.extend(stage_partition_problems(histograms, result.n_ok))
    e2e = histograms["serving.e2e"]
    stage_p50_sum = sum(
        histograms[f"serving.{stage}"]["p50"] or 0.0
        for stage, _, _ in STAGE_HISTOGRAMS
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
        f"telemetry on, stage totals sum to the e2e total "
        f"{e2e['sum'] * 1e3:.2f} ms; for information, stage medians sum "
        f"{stage_p50_sum * 1e3:.2f} ms vs e2e p50 "
        f"{(e2e['p50'] or 0.0) * 1e3:.2f} ms; "
        f"{n_flows} request flows sampled)"
        if not problems
        else "serve selftest FAIL: " + "; ".join(problems)
    )
    lines = [format_load_results([result])]
    if trace_out is not None:
        summary, _ = _write_serving_trace(trace_out, recorder, metrics, rtrace)
        lines.append(
            f"wrote {summary['path']}: {summary['n_events']} events "
            f"({summary['n_flows']} flow events)"
        )
    text = "\n".join(lines)
    return f"{text}\n\n{verdict}", 0 if not problems else 1

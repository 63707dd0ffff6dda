"""Open-loop load generator for the serving broker.

"Millions of users" do not wait for the previous answer before asking
the next question, so the generator is strictly *open-loop*: request
send times come from a pre-drawn arrival process and are honoured
regardless of how the system is doing.  That is what makes overload
visible — a closed-loop generator slows down with the system under
test and hides the knee (the coordinated-omission trap).

Two arrival processes stand in for live traffic:

* **poisson** — memoryless arrivals at a constant offered rate, the
  standard open-system model;
* **diurnal** — a non-homogeneous Poisson process whose rate follows a
  raised-cosine day curve (``peak_ratio`` between trough and peak,
  ``cycles`` full days over the run), drawn by Lewis-Shedler thinning.
  A day compressed into seconds, for testing how batching adapts when
  the offered load itself drifts.

Latency is captured per request (send → future resolution, so it
includes queueing, batching wait and kernel time) into a
:class:`~repro.obs.hist.LogHistogram` — fixed memory however many
requests a sweep point answers — and a run reduces to a
:class:`LoadResult`: offered vs delivered load (goodput), shed count
*and rate*, p50/p95/p99/p999 latency, SLO error-budget burn rate (shed
requests burn budget too), and the broker's mean batch size.
Percentiles follow the *nearest-rank (higher)* convention to within
the histogram's bucket width (≤ 4.5% relative) — the reference
implementation is :func:`percentile_summary`, pure and unit-tested
against known traces, which the histogram is cross-checked against.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError, ServingOverloadError
from repro.obs.hist import LogHistogram
from repro.serving.broker import MicroBatchBroker

__all__ = [
    "poisson_arrivals",
    "diurnal_arrivals",
    "percentile_summary",
    "LoadResult",
    "run_open_loop",
    "format_load_results",
]


def poisson_arrivals(
    rate_rps: float, duration_s: float, *, seed: int = 0
) -> np.ndarray:
    """Arrival offsets (seconds, sorted) of a Poisson process.

    Exponential inter-arrivals at *rate_rps*, truncated to
    *duration_s*.  Deterministic per *seed*.
    """
    if rate_rps <= 0:
        raise ServingError(f"rate_rps must be > 0, got {rate_rps}")
    if duration_s <= 0:
        raise ServingError(f"duration_s must be > 0, got {duration_s}")
    rng = np.random.default_rng(seed)
    # Draw with slack, then truncate: mean count + 6 sigma.
    n = int(rate_rps * duration_s + 6 * np.sqrt(rate_rps * duration_s) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    while times.size and times[-1] < duration_s:  # pragma: no cover - rare
        extra = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
        times = np.concatenate([times, times[-1] + extra])
    return times[times < duration_s]


def diurnal_arrivals(
    mean_rate_rps: float,
    duration_s: float,
    *,
    peak_ratio: float = 3.0,
    cycles: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Arrival offsets of a day-curve-modulated Poisson process.

    The instantaneous rate follows a raised cosine around
    *mean_rate_rps* with *peak_ratio* = peak/trough, completing
    *cycles* full "days" over *duration_s*; arrivals are drawn by
    thinning a homogeneous process at the peak rate.
    """
    if peak_ratio < 1:
        raise ServingError(f"peak_ratio must be >= 1, got {peak_ratio}")
    if cycles <= 0:
        raise ServingError(f"cycles must be > 0, got {cycles}")
    # peak = mean * 2r/(r+1), trough = mean * 2/(r+1): mean is exact.
    peak = mean_rate_rps * 2 * peak_ratio / (peak_ratio + 1)
    trough = mean_rate_rps * 2 / (peak_ratio + 1)
    candidates = poisson_arrivals(peak, duration_s, seed=seed)
    phase = 2 * np.pi * cycles * candidates / duration_s
    # Trough at t=0, peak mid-cycle: starts the run in the quiet hours.
    rate_at = trough + (peak - trough) * (1 - np.cos(phase)) / 2
    rng = np.random.default_rng(seed + 1)
    keep = rng.random(candidates.size) < rate_at / peak
    return candidates[keep]


def percentile_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample, nearest-rank (higher).

    ``p<q>`` is the smallest observed latency such that at least q% of
    the sample is <= it (numpy's ``method="higher"``) — conservative
    for SLO checks because it never interpolates *below* an observed
    tail value.  Raises on an empty sample: a run that completed zero
    requests has no latency distribution to summarise.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        raise ServingError("no latencies to summarise (zero completions)")
    p50, p95, p99 = np.percentile(lat, [50, 95, 99], method="higher")
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(lat.mean()),
        "max": float(lat.max()),
    }


def _burn_rate(n_over: int, n_shed: int, n_ok: int) -> float:
    """Error-budget burn rate of one run against a latency SLO.

    *n_over* of the *n_ok* answered requests took longer than the SLO
    and *n_shed* more were shed; a shed user is not a served user, so
    both burn budget.  With a 99% compliance target the budget is 1%
    of requests over the SLO, and the burn rate is how many times
    faster than that the run consumed it (1.0 = exactly on budget; the
    Google SRE workbook convention).  0.0 for a run with no answered
    or shed requests.
    """
    n = n_ok + n_shed
    return (n_over + n_shed) / n / (1.0 - 0.99) if n else 0.0


@dataclass(frozen=True)
class LoadResult:
    """Reduction of one open-loop run against one broker."""

    name: str
    offered_rps: float
    duration_s: float
    n_sent: int
    n_ok: int
    n_rejected: int
    n_failed: int
    goodput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch_rows: float
    slo_ms: Optional[float] = None
    p999_ms: float = float("nan")
    shed_rate: float = 0.0
    burn_rate: Optional[float] = None

    @property
    def slo_met(self) -> Optional[bool]:
        """p99 within the SLO (None when no SLO was configured)."""
        if self.slo_ms is None:
            return None
        return self.p99_ms <= self.slo_ms

    def to_dict(self) -> dict:
        """JSON-native form (for tables and tests)."""
        return {
            "name": self.name,
            "offered_rps": self.offered_rps,
            "duration_s": self.duration_s,
            "n_sent": self.n_sent,
            "n_ok": self.n_ok,
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            "goodput_rps": self.goodput_rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "mean_batch_rows": self.mean_batch_rows,
            "slo_ms": self.slo_ms,
            "slo_met": self.slo_met,
            "shed_rate": self.shed_rate,
            "burn_rate": self.burn_rate,
        }


async def run_open_loop(
    broker: MicroBatchBroker,
    data: np.ndarray,
    arrivals: np.ndarray,
    *,
    name: str = "load",
    slo_ms: Optional[float] = None,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
    query_mix: Optional[
        Sequence[Tuple[Optional[Sequence[int]], Optional[float]]]
    ] = None,
    on_result: Optional[Callable[[int, float], None]] = None,
) -> LoadResult:
    """Drive *broker* with one pre-drawn arrival trace, open-loop.

    Request *i* sends row ``data[i % len(data)]`` at offset
    ``arrivals[i]`` from the run start — never waiting for earlier
    requests.  Shed requests (:class:`~repro.errors.
    ServingOverloadError`) are counted, not retried; per-request
    latency is send-to-answer wall time.  Goodput is answered requests
    over the span from first send to last answer.

    *query_mix*, when given, overrides the run-wide *marginalized* /
    *missing_value* pair per request: request *i* carries signature
    ``query_mix[i % len(query_mix)]``, interleaving likelihood,
    marginal and missing-value traffic through the broker's
    signature-keyed batches.  *on_result* (``callback(i, value)``) is
    invoked with each answered request's index and log-likelihood, so
    callers can verify values without closing the loop.

    Latencies stream into a fixed-memory
    :class:`~repro.obs.hist.LogHistogram`.  When *slo_ms* is set, every
    answered request slower than it and every shed request count
    against the SLO, and the result carries the run's error-budget
    burn rate.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.size == 0:
        raise ServingError("empty arrival trace")
    if data.ndim != 2 or data.shape[0] == 0:
        raise ServingError(
            f"data must be a non-empty 2-D matrix, got shape {data.shape}"
        )
    if query_mix is not None and len(query_mix) == 0:
        raise ServingError("query_mix must be non-empty when given")
    if slo_ms is not None and slo_ms <= 0:
        raise ServingError(f"slo_ms must be > 0, got {slo_ms}")
    loop = asyncio.get_running_loop()
    duration = float(arrivals[-1])
    hist = LogHistogram(f"{name}.latency")
    counts = {"ok": 0, "rejected": 0, "failed": 0, "over": 0}
    start = loop.time()

    async def issue(i: int, offset: float, row: np.ndarray) -> None:
        delay = start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if query_mix is not None:
            marg, miss = query_mix[i % len(query_mix)]
        else:
            marg, miss = marginalized, missing_value
        sent = time.perf_counter()
        try:
            value = await broker.submit(
                row, marginalized=marg, missing_value=miss
            )
        except ServingOverloadError:
            counts["rejected"] += 1
        except Exception:
            counts["failed"] += 1
        else:
            counts["ok"] += 1
            latency = time.perf_counter() - sent
            hist.record(latency)
            if slo_ms is not None and latency * 1e3 > slo_ms:
                counts["over"] += 1
            if on_result is not None:
                on_result(i, value)

    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            issue(i, float(offset), data[i % data.shape[0]])
            for i, offset in enumerate(arrivals)
        )
    )
    span = max(time.perf_counter() - t0, 1e-9)
    return LoadResult(
        name=name,
        offered_rps=arrivals.size / max(duration, 1e-9),
        duration_s=duration,
        n_sent=int(arrivals.size),
        n_ok=counts["ok"],
        n_rejected=counts["rejected"],
        n_failed=counts["failed"],
        goodput_rps=counts["ok"] / span,
        p50_ms=hist.p50 * 1e3,
        p95_ms=hist.p95 * 1e3,
        p99_ms=hist.p99 * 1e3,
        p999_ms=hist.p999 * 1e3,
        mean_batch_rows=broker.stats.mean_batch_rows,
        slo_ms=slo_ms,
        shed_rate=counts["rejected"] / arrivals.size,
        burn_rate=(
            _burn_rate(counts["over"], counts["rejected"], counts["ok"])
            if slo_ms is not None
            else None
        ),
    )


def format_load_results(results: Sequence[LoadResult]) -> str:
    """Render load runs as the serving result table.

    ``shed%`` (of offered load) and ``burn`` (SLO error-budget burn
    rate, shed requests included) sit next to the latency percentiles
    so an overloaded sweep point cannot hide behind a good p99 — the
    shed-visibility rule.
    """
    header = (
        f"{'scenario':<16} {'offered':>9} {'goodput':>9} {'ok':>7} "
        f"{'shed%':>6} {'p50':>8} {'p95':>8} {'p99':>8} {'batch':>7} "
        f"{'burn':>6}  slo"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        slo = "-" if r.slo_met is None else ("ok" if r.slo_met else "MISS")
        burn = "-" if r.burn_rate is None else f"{r.burn_rate:.2f}"
        lines.append(
            f"{r.name:<16} {r.offered_rps:>7.0f}/s {r.goodput_rps:>7.0f}/s "
            f"{r.n_ok:>7} {r.shed_rate * 100:>5.1f}% {r.p50_ms:>6.1f}ms "
            f"{r.p95_ms:>6.1f}ms {r.p99_ms:>6.1f}ms {r.mean_batch_rows:>7.1f}"
            f" {burn:>6}  {slo}"
        )
    return "\n".join(lines)

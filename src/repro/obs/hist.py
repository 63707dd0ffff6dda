"""Log-bucketed latency histograms: fixed memory, mergeable, HDR-style.

The load generator used to hoard every latency sample in a Python list
and reduce it with :func:`repro.serving.loadgen.percentile_summary` at
the end — fine for a one-second smoke run, hopeless for the ROADMAP's
"millions of users" arc where a sweep point may answer millions of
requests, and useless for *streaming* telemetry where percentiles must
be readable mid-run.  :class:`LogHistogram` replaces the sample list
with the standard serving-systems answer (HdrHistogram, Prometheus
native histograms): geometrically spaced buckets over a fixed value
range, so memory is constant regardless of sample count and two
histograms recorded independently (per lane, per rate point, per
process) merge by adding bucket counts.

Accuracy is explicit, not incidental: every bucket spans a fixed ratio
(``growth``, default ``2 ** (1/16)`` — ≤ 4.5% relative width), and
:meth:`LogHistogram.percentile` reproduces the nearest-rank
``method="higher"`` convention of ``percentile_summary`` to within one
bucket width (test-enforced across n=1, n=2, heavy-tail and all-equal
distributions).  Exact ``count``/``sum``/``min``/``max`` are kept on
the side, so degenerate samples (one observation, all equal) report
exact percentiles — the quantile is clamped to the observed range.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["LogHistogram", "DEFAULT_GROWTH", "DEFAULT_MIN_VALUE", "DEFAULT_MAX_VALUE"]

#: Default bucket growth ratio: 16 buckets per doubling, ≤ 4.5% width.
DEFAULT_GROWTH = 2.0 ** (1.0 / 16.0)

#: Default smallest resolvable value (1 µs — below it, bucket 0).
DEFAULT_MIN_VALUE = 1e-6

#: Default largest resolvable value (10 000 s — above it, last bucket).
DEFAULT_MAX_VALUE = 1e4


class LogHistogram:
    """A mergeable log-bucketed histogram of non-negative values.

    Bucket ``i`` covers ``[min_value * growth**i, min_value *
    growth**(i+1))``; values at or below ``min_value`` land in bucket
    0 and values beyond ``max_value`` clamp into the last bucket (the
    exact ``max`` is tracked separately, so clamping never hides an
    outlier).  The bucket array is allocated once at construction —
    :meth:`record` is O(1) with zero allocation, and total memory is
    ``n_buckets`` ints however many samples arrive.

    Thread safety: pass a *lock* (e.g. the owning
    :class:`~repro.obs.metrics.MetricsRegistry`'s) to make
    :meth:`record`/:meth:`merge`/readers atomic; standalone instances
    create their own.
    """

    __slots__ = (
        "name",
        "min_value",
        "max_value",
        "growth",
        "_log_growth",
        "_counts",
        "count",
        "total",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str = "",
        *,
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        growth: float = DEFAULT_GROWTH,
        lock: Optional[threading.RLock] = None,
    ):
        if min_value <= 0:
            raise ReproError(f"min_value must be > 0, got {min_value}")
        if max_value <= min_value:
            raise ReproError(
                f"max_value ({max_value}) must exceed min_value ({min_value})"
            )
        if growth <= 1.0:
            raise ReproError(f"growth must be > 1, got {growth}")
        self.name = name
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        n_buckets = (
            int(math.ceil(math.log(max_value / min_value) / self._log_growth))
            + 1
        )
        self._counts: List[int] = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = lock if lock is not None else threading.RLock()

    # -- geometry ---------------------------------------------------------------
    @property
    def n_buckets(self) -> int:
        """Fixed bucket count (memory footprint, set at construction)."""
        return len(self._counts)

    @property
    def relative_error(self) -> float:
        """Worst-case relative width of one bucket (``growth - 1``)."""
        return self.growth - 1.0

    def _bucket_index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth)
        return min(index, len(self._counts) - 1)

    def _bucket_upper(self, index: int) -> float:
        return self.min_value * self.growth ** (index + 1)

    # -- recording --------------------------------------------------------------
    def record(self, value: float, count: int = 1) -> None:
        """Add *count* observations of *value* (negatives clamp to zero).

        ``record(v, count=n)`` leaves the histogram exactly as ``n``
        calls of ``record(v)`` would (``total`` up to float rounding) —
        how a batch-wide duration is weighed by the batch's rows.
        """
        if count < 1:
            raise ReproError(f"count must be >= 1, got {count}")
        value = float(value)
        if value < 0.0:
            value = 0.0
        with self._lock:
            self._counts[self._bucket_index(value)] += count
            self.count += count
            self.total += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "LogHistogram") -> None:
        """Fold *other*'s observations in (bucket layouts must match)."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.growth != self.growth
        ):
            raise ReproError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                "bucket layouts differ (min_value/max_value/growth)"
            )
        with self._lock, other._lock:
            for i, n in enumerate(other._counts):
                self._counts[i] += n
            self.count += other.count
            self.total += other.total
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    # -- reduction --------------------------------------------------------------
    @property
    def min(self) -> float:
        """Exact smallest observation (NaN while empty)."""
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        """Exact largest observation (NaN while empty)."""
        return self._max if self.count else math.nan

    @property
    def mean(self) -> float:
        """Exact mean (NaN while empty)."""
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Nearest-rank (higher) percentile, within one bucket width.

        Follows ``np.percentile(..., method="higher")``: the target is
        the observation at 0-based rank ``ceil((n - 1) * q / 100)``.
        The bucket holding that rank reports its upper bound, clamped
        to the exact observed ``[min, max]`` — so n=1 and all-equal
        samples are exact, and no percentile exceeds an observed value
        by more than one bucket's relative width.
        """
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            if self.count == 0:
                return math.nan
            rank = math.ceil((self.count - 1) * q / 100.0)  # 0-based
            cumulative = 0
            for index, n in enumerate(self._counts):
                cumulative += n
                if cumulative >= rank + 1:
                    return float(
                        min(max(self._bucket_upper(index), self._min),
                            self._max)
                    )
            return self._max  # pragma: no cover - counts always sum up

    @property
    def p50(self) -> float:
        """Median (see :meth:`percentile`)."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        """99.9th percentile."""
        return self.percentile(99.9)

    def summary(self) -> Dict[str, float]:
        """JSON-native reduction: count/sum/mean/min/max + quantiles."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "p50": self.p50,
                "p95": self.p95,
                "p99": self.p99,
                "p999": self.p999,
            }

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """``(bucket upper bound, count)`` for every occupied bucket."""
        with self._lock:
            return [
                (self._bucket_upper(i), n)
                for i, n in enumerate(self._counts)
                if n
            ]

    def to_dict(self) -> dict:
        """Full JSON-native dump: summary + sparse occupied buckets."""
        with self._lock:
            return {
                "name": self.name,
                "min_value": self.min_value,
                "max_value": self.max_value,
                "growth": self.growth,
                **self.summary(),
                "buckets": [[le, n] for le, n in self.nonzero_buckets()],
            }

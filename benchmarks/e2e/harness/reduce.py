"""Reducers that turn raw samples into the reported numbers.

Percentiles are nearest-rank: of ``n`` sorted samples the ``q``
percentile is sample number ``ceil(q * n)`` (1-based), which leaves
``n - ceil(q * n)`` samples beyond it.  A percentile is only reported
where enough samples lie beyond it — a p99 over 200 samples is two
samples' worth of luck, not a tail.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q* percentile among *n* samples."""
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    return n - _rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q* percentile (``0 < q <= 1``) of *values*."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        raise ValueError("percentile of no samples")
    return float(data[_rank(data.size, q) - 1])


def supported_quantile(n: int, q_max: float,
                       min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest quantile ``<= q_max`` with *min_beyond* samples beyond it.

    ``None`` when *n* is too small to support any quantile.
    """
    if n - min_beyond < 1:
        return None
    return min(q_max, (n - min_beyond) / n)


def tail(values: Sequence[float], q_max: float = 0.99,
         min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """``(value, quantile)`` of the highest supported tail percentile.

    For runs of a few dozen operations (closed-loop workloads): 30
    samples support p66, 40 support p75, 1000 and more support p99.
    """
    n = len(values)
    q = supported_quantile(n, q_max, min_beyond)
    if q is None:
        raise ValueError(
            f"{n} samples cannot support a tail percentile with "
            f"{min_beyond} samples beyond it"
        )
    return percentile(values, q), q


def windowed_percentile(
    values: Sequence[float],
    windows: Sequence[int],
    q: float,
    min_beyond: int = MIN_BEYOND,
) -> Tuple[float, int]:
    """Median over windows of the per-window *q* percentile.

    *windows* assigns each sample a window number (for an open loop,
    ``floor(due time / window width)``).  A window with fewer than
    *min_beyond* samples beyond its percentile — an empty or short
    one, such as the last partial window of a run — is dropped.
    Returns ``(median, windows used)``.

    Why windowed: one VM stall of a few hundred milliseconds is more
    than 1 % of a ten-second run, so the whole-run p99 measures
    whether a stall happened, not the system; the median of per-window
    p99s ignores the stalled windows as long as most are clean.
    """
    data = np.asarray(values, dtype=np.float64)
    keys = np.asarray(windows)
    if data.shape != keys.shape:
        raise ValueError("values and windows differ in length")
    if min_beyond < 1:
        raise ValueError("min_beyond must be at least 1")
    order = np.argsort(keys, kind="stable")
    data, keys = data[order], keys[order]
    bounds = np.flatnonzero(np.diff(keys)) + 1
    per_window = [
        percentile(chunk, q)
        for chunk in np.split(data, bounds)
        if chunk.size and samples_beyond(chunk.size, q) >= min_beyond
    ]
    if not per_window:
        raise ValueError(
            f"no window holds {min_beyond} samples beyond its p{q * 100:g}"
        )
    return float(np.median(per_window)), len(per_window)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance over the median (the contract's spread)."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

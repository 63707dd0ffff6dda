"""Seeded workload inputs: arrival schedules, row choices, orders.

Every stream is drawn from ``(seed, label)``, so the same seed gives
the same inputs whatever else a workload draws, and two labels of one
seed are independent.  The program under test never sees the seed —
only the arrays made here.
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, label: str) -> np.random.Generator:
    """The generator of stream *label* under *seed*."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def poisson_schedule(rate: float, seconds: float, seed: int,
                     label: str = "arrivals") -> np.ndarray:
    """Sorted due times (seconds from the start) of a Poisson process
    of *rate* per second over ``[0, seconds)``."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = rng_for(seed, label)
    chunks, reached = [], 0.0
    while reached < seconds:
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.1) + 64)
        chunk = reached + np.cumsum(gaps)
        chunks.append(chunk)
        reached = float(chunk[-1])
    due = np.concatenate(chunks)
    return due[due < seconds]


def row_choice(n: int, pool_rows: int, seed: int,
               label: str = "rows") -> np.ndarray:
    """*n* row numbers drawn uniformly from a pool of *pool_rows*."""
    return rng_for(seed, label).integers(0, pool_rows, size=n)


def shuffled(items, seed: int, label: str = "order") -> list:
    """*items* in a seed-chosen order."""
    items = list(items)
    order = rng_for(seed, label).permutation(len(items))
    return [items[i] for i in order]

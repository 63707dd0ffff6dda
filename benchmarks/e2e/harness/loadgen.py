"""The benchmark's own open-loop request generator.

Not ``repro.serving.loadgen``: that one stamps latency when a request
is *sent* and gathers one coroutine per request until the run ends.
Here one scheduler coroutine fires each request when it is *due*;
latency is counted from the due time, so a stall of the generator or
of the system shows in every request it delayed; per-request results
go into arrays allocated before the run; and a request's task and
coroutine are dropped the moment it is answered, so the collector has
nothing to walk but the requests in flight.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

PENDING, OK, SHED, ERROR = 0, 1, 2, 3


class Requests:
    """One run's requests: inputs chosen beforehand, outcomes filled in.

    ``due`` is seconds after the run's start; ``sig`` picks the
    ``(pool, submit kwargs)`` pair and ``row`` the pool row.  ``sent``
    (first step of the request's coroutine) and ``done`` use the same
    origin as ``due``.
    """

    def __init__(self, due: np.ndarray, sig: np.ndarray, row: np.ndarray):
        n = len(due)
        if not (len(sig) == len(row) == n):
            raise ValueError("due, sig and row differ in length")
        self.n = n
        self.due = np.ascontiguousarray(due, dtype=np.float64)
        self.sig = np.asarray(sig, dtype=np.int64)
        self.row = np.asarray(row, dtype=np.int64)
        self.sent = np.zeros(n)
        self.done = np.zeros(n)
        self.answer = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.uint8)
        self.first_error: Optional[str] = None

    @property
    def latency(self) -> np.ndarray:
        """Seconds from due to answered."""
        return self.done - self.due

    @property
    def lateness(self) -> np.ndarray:
        """Seconds the generator ran behind: due to first step."""
        return self.sent - self.due


async def open_loop(
    submit: Callable,
    pools: Sequence[Tuple[np.ndarray, dict]],
    req: Requests,
    shed_error: type,
    on_fire: Optional[Callable[[float, float, int], None]] = None,
) -> None:
    """Fire every request of *req* at its due time; returns when all
    are answered.

    *submit* is the broker's coroutine function.  Requests that are due
    together (a burst: every ``due`` equal) are all created before any
    of them runs.  *on_fire(begin, end, count)* is called after each
    firing with absolute stamps — the traced run's generator spans.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    finished = loop.create_future()
    tasks = set()
    left = req.n
    due, sig, row = req.due.tolist(), req.sig.tolist(), req.row.tolist()
    sent, done, answer, status = req.sent, req.done, req.answer, req.status
    origin = clock() + 0.005

    async def one(i: int) -> None:
        nonlocal left
        pool, kwargs = pools[sig[i]]
        sent[i] = clock() - origin
        try:
            answer[i] = await submit(pool[row[i]], **kwargs)
            status[i] = OK
        except shed_error:
            status[i] = SHED
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            status[i] = ERROR
            if req.first_error is None:
                req.first_error = repr(exc)
        done[i] = clock() - origin
        left -= 1
        if not left:
            finished.set_result(None)

    i, n = 0, req.n
    while i < n:
        wait = origin + due[i] - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        begin = clock()
        now = begin - origin
        j = i + 1
        while j < n and due[j] <= now:
            j += 1
        for k in range(i, j):
            task = loop.create_task(one(k))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if on_fire is not None:
            on_fire(begin, clock(), j - i)
        i = j
    if n:
        await finished

"""Shared resources and rate limiters for simulation models.

:class:`SimResource` is a counted resource with FIFO arbitration —
used for DMA engines, memory-controller command slots and PCIe lanes.
:class:`TokenBucket` is a byte-rate limiter used to impose sustained
bandwidth caps with burst tolerance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event

__all__ = ["SimResource", "TokenBucket"]


class SimResource:
    """A counted resource with FIFO request queueing.

    Typical use inside a process::

        grant = resource.request()
        yield grant
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self.total_grants = 0

    @property
    def in_use(self) -> int:
        """Currently granted units."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a grant."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one unit; the event triggers when granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_grants += 1
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def seize(self) -> None:
        """Take one idle unit at once: no grant event, no grant counted.

        For a holder that accounts its own grants (the accelerator
        core's fast-forwarded job).  Raises when no unit is idle.
        """
        if self._in_use >= self.capacity or self._waiters:
            raise SimulationError(f"seize on busy resource {self.name!r}")
        self._in_use += 1

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            self.total_grants += 1
            waiter.succeed(None)
        else:
            self._in_use -= 1


class TokenBucket:
    """A byte-rate limiter with burst capacity.

    Models a link that sustains ``rate`` bytes/s but can absorb bursts of
    up to ``burst`` bytes.  Consumers call :meth:`consume` and yield the
    returned event; the event triggers once enough tokens have accrued.
    Requests are served strictly in FIFO order, so the bucket also acts
    as an arbiter.
    """

    def __init__(self, env: Engine, rate: float, burst: float, name: str = "bucket"):
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        if burst <= 0:
            raise SimulationError(f"burst must be positive, got {burst}")
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self.name = name
        self._tokens = float(burst)
        self._updated = env.now
        self._pending: Deque[tuple] = deque()  # (event, amount)
        self._draining = False
        self.total_consumed = 0.0

    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def consume(self, amount: float) -> Event:
        """Request *amount* bytes of link time.

        Amounts larger than the burst size are allowed: they simply take
        ``amount / rate`` seconds of link time to drain.
        """
        if amount < 0:
            raise SimulationError(f"negative consume amount {amount}")
        event = Event(self.env)
        self._pending.append((event, float(amount)))
        if not self._draining:
            self._draining = True
            self.env.process(self._drain(), name=f"{self.name}-drain")
        return event

    def _drain(self):
        while self._pending:
            event, amount = self._pending[0]
            self._refill()
            if self._tokens >= amount:
                self._tokens -= amount
            else:
                # Larger-than-burst (or currently unaffordable) requests
                # drain the bucket and then occupy the link for the
                # remaining bytes; the wait time itself pays for the
                # accrual, so the clock (not the capped bucket) meters it.
                deficit = amount - self._tokens
                self._tokens = 0.0
                yield self.env.timeout(deficit / self.rate)
                self._updated = self.env.now
            self.total_consumed += amount
            self._pending.popleft()
            event.succeed(None)
        self._draining = False

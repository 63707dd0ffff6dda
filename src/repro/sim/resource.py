"""Shared resources and rate limiters for simulation models.

:class:`SimResource` is a counted resource with FIFO arbitration —
used for DMA engines, memory-controller command slots and PCIe lanes.
:class:`TokenBucket` is a byte-rate limiter used to impose sustained
bandwidth caps with burst tolerance; it computes each request's FIFO
completion time in closed form, so a metered request is one event.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

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
    up to ``burst`` bytes.  Requests are served strictly in FIFO order,
    so the bucket also acts as an arbiter.

    Because service is FIFO, a request's completion time is known the
    moment it arrives: it starts at ``max(arrival, previous
    completion)``, refills for the gap, and either pays from the bucket
    (completing at its start) or empties it and occupies the link for
    the deficit.  :meth:`reserve` computes that time in closed form, so
    a metered request is one ``env.timeout_until`` and the bucket never
    runs a process of its own.
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
        # Time of the last refill, which is also the completion time of
        # the last reservation: the link is free from here on.
        self._updated = env.now
        self._arrival = env.now
        #: Bytes reserved so far, including any still draining.
        self.total_consumed = 0.0

    def reserve(self, amount: float, at: float) -> float:
        """Queue *amount* bytes arriving at time *at*; return when they
        have drained.

        Arrivals must come in time order (ties in call order), which is
        what makes the FIFO closed form exact; an earlier *at* than the
        previous call's raises.  Amounts larger than the burst size are
        allowed: they take ``amount / rate`` seconds of link time.
        """
        if amount < 0:
            raise SimulationError(f"negative consume amount {amount}")
        if at < self._arrival:
            raise SimulationError(
                f"{self.name}: arrival {at} precedes the previous arrival {self._arrival}"
            )
        self._arrival = at
        amount = float(amount)
        updated = self._updated
        start = at if at > updated else updated
        # The same float operations, in the same order, as a drain
        # process that refills at the service start and then sleeps off
        # the deficit (the oracle in tests/sim/test_resource.py): the
        # wait itself pays for the accrual, so the clock (not the capped
        # bucket) meters it.
        tokens = min(self.burst, self._tokens + (start - updated) * self.rate)
        if tokens >= amount:
            self._tokens = tokens - amount
            end = start
        else:
            self._tokens = 0.0
            end = start + (amount - tokens) / self.rate
        self._updated = end
        self.total_consumed += amount
        return end


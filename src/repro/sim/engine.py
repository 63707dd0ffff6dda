"""Core event loop, events and coroutine processes.

The engine keeps a binary heap of ``(time, sequence, event)`` triples.
Events are one-shot: they are *triggered* with a value (or an exception)
exactly once, after which all registered callbacks run at the trigger
time.  Processes are Python generators that ``yield`` events; the engine
resumes them with the event's value (or throws the event's exception
into them).

This is the only place in the library where simulated time advances.

Event churn dominates simulation profiles, so the engine recycles its
short-lived bookkeeping objects: timeouts created via
:meth:`Engine.timeout` and the relay events used to resume a process
that yielded an already-processed event are returned to per-engine
free pools once their callbacks have run.  Recycling is restricted to
events that can no longer be observed: any event registered through
:meth:`Event.add_callback` (``AllOf``/``AnyOf`` members, explicit
subscriptions) or passed as ``run(until_event=...)`` is pinned and
never reused.  The contract this imposes on user code is mild and was
already true everywhere in the library: a ``Timeout`` yielded from a
process must not be inspected after the process has resumed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError

__all__ = ["Engine", "Event", "Process", "Timeout", "AllOf", "AnyOf", "Interrupt"]

# Sentinel distinguishing "not yet triggered" from a triggered ``None``.
_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` schedules
    it for processing at the current simulation time, at which point its
    callbacks fire.  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_reusable")

    def __init__(self, env: "Engine"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        self._reusable = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises :class:`SimulationError` if the event is still pending.
        """
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to throw into waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._ok = False
        self.env._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback* to run when the event is processed.

        If the event is already processed the callback runs immediately.

        Registering a callback pins the event: it will never be recycled
        into the engine's free pools, so the caller may safely retain a
        reference and inspect it later.
        """
        self._reusable = False
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers itself after a fixed delay.

    When *_at* is given the event is heap-scheduled at that absolute
    time with no ``now + delay`` float round-trip (see
    :meth:`Engine.timeout_until`).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Engine", delay: float, value: Any = None, *, _at: Optional[float] = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        if _at is None:
            env._schedule(self, delay=delay)
        else:
            env._schedule_at(self, _at)


class Process(Event):
    """A running coroutine.

    The process is itself an event that triggers with the generator's
    return value when it finishes (or fails with its unhandled
    exception), so processes can wait for each other by yielding.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Engine", generator: Generator, name: str = ""):
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current time via an initialisation event.
        env._relay(None, True, self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self.env._relay(Interrupt(cause), False, self._resume)

    # -- engine plumbing ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event.ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly with
            # the interrupt as its failure value.
            self.fail(SimulationError(f"process {self.name!r} killed by interrupt"))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        if target.processed:
            # Already-processed events resume the process immediately at
            # the current time (schedule a relay to preserve ordering).
            self.env._relay(target._value, target._ok, self._resume)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    The value is the list of child values in construction order.  If any
    child fails, this event fails with that child's exception.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers with the first child event's ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((index, child._value))
        else:
            self.fail(child._value)


class Engine:
    """The simulation environment: clock plus event queue.

    Use :meth:`process` to start coroutines, :meth:`timeout` to create
    delays inside them, and :meth:`run` to execute until the queue drains
    or an optional time/condition bound is reached.
    """

    def __init__(self):
        self._now: float = 0.0
        self._queue: List = []
        self._sequence: int = 0
        # Free pools for engine-internal short-lived events (see module
        # docstring for the recycling contract).
        self._timeout_pool: List[Timeout] = []
        self._relay_pool: List[Event] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Events put on the heap so far (the simulator's unit of work)."""
        return self._sequence

    # -- factories -------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering *delay* seconds from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            ev = pool.pop()
            ev.callbacks = []
            ev._scheduled = False
            ev._value = value
            ev._ok = True
            ev.delay = delay
            self._schedule(ev, delay=delay)
            return ev
        ev = Timeout(self, delay, value)
        ev._reusable = True
        return ev

    def timeout_until(self, time: float, value: Any = None) -> Timeout:
        """An event triggering at the absolute simulated *time*.

        Equivalent to ``timeout(time - now)`` except that the event
        lands bit-exactly on *time*: no ``now + delay`` float addition
        is performed.  The fast-forward path uses this to reproduce the
        burst-granular model's timings without accumulating rounding
        differences.  The event is never recycled, so the caller may
        keep it and read its value after it has been processed.
        """
        if time < self._now:
            raise SimulationError(f"timeout_until {time} is in the past (now={self._now})")
        return Timeout(self, time - self._now, value, _at=time)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a coroutine as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier over *events*."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """First-of-many over *events*."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event._scheduled = True
        heappush(self._queue, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def _schedule_at(self, event: Event, time: float) -> None:
        """Heap-push *event* at the absolute *time* (no ``now + delay``)."""
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1

    def _relay(self, value: Any, ok: bool, callback: Callable[[Event], None]) -> None:
        """Schedule a pooled single-callback event at the current time.

        Used to resume a process from an already-processed yield target
        (and for process init/interrupt wake-ups) without allocating a
        fresh Event per hop.
        """
        pool = self._relay_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = [callback]
            ev._scheduled = False
        else:
            ev = Event(self)
            ev.callbacks.append(callback)
            ev._reusable = True
        ev._value = value
        ev._ok = ok
        self._schedule(ev)

    def _step(self) -> None:
        time, _, event = heappop(self._queue)
        if time < self._now:
            raise SimulationError(f"time went backwards: {time} < {self._now}")
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waits on would silently swallow its
            # exception; surface it instead.
            raise event._value
        if event._reusable:
            # Engine-internal event nobody can observe any more: return
            # it to its free pool instead of letting it churn the GC.
            event._value = _PENDING
            if type(event) is Timeout:
                self._timeout_pool.append(event)
            else:
                self._relay_pool.append(event)

    # -- execution ----------------------------------------------------------------
    def run(self, until: Optional[float] = None, until_event: Optional[Event] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop (with the clock set to *until*) once the next event lies
            beyond this time.
        until_event:
            Stop as soon as this event has been processed; its value is
            returned (its exception re-raised).

        Returns
        -------
        The *until_event* value when given, else ``None`` when the queue
        drains or the time bound is hit.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run until {until} is in the past (now={self._now})")
        if until_event is not None:
            # The caller holds a reference across processing: never pool it.
            until_event._reusable = False
        queue = self._queue
        step = self._step
        while queue:
            if until_event is not None and until_event.processed:
                break
            if until is not None and queue[0][0] > until:
                self._now = until
                return None
            step()
        if until_event is not None:
            if not until_event.processed:
                raise SimulationError("event queue drained before until_event triggered")
            if not until_event.ok:
                raise until_event._value
            return until_event._value
        if until is not None and self._now < until:
            self._now = until
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

"""Discrete-event simulation kernel.

A minimal, dependency-free DES kernel in the style of SimPy, sized for
this project's needs: coroutine processes, one-shot events, timeouts,
bounded FIFO channels with backpressure, and shared resources with
FIFO arbitration.  Span tracing lives in :mod:`repro.obs.trace_export`.

The kernel is deliberately *burst-granular*, not cycle-granular: model
components schedule events at transaction boundaries (an AXI burst, a
DMA block, a pipeline drain), which keeps paper-scale simulations
tractable in pure Python while preserving the timing interactions the
evaluation depends on (see DESIGN.md §6).

Example
-------
>>> from repro.sim import Engine
>>> eng = Engine()
>>> log = []
>>> def proc(env):
...     yield env.timeout(1.5)
...     log.append(env.now)
>>> _ = eng.process(proc(eng))
>>> eng.run()
>>> log
[1.5]
"""

from repro.sim.engine import Engine, Event, Process, Timeout, AllOf, AnyOf
from repro.sim.channel import Channel, ClosedChannelError
from repro.sim.resource import SimResource, TokenBucket

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Channel",
    "ClosedChannelError",
    "SimResource",
    "TokenBucket",
]

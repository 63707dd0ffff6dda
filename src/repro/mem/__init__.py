"""Memory-substrate models: HBM and its traffic generators.

These models are burst-granular discrete-event components (see
DESIGN.md §6) plus matching closed-form throughput functions.  The HBM
channel model reproduces the paper's Fig. 2 microbenchmark — single-
channel read+write throughput versus request size for the native
450 MHz/256-bit attachment and the clock/width-converted 225 MHz/
512-bit core-port attachment — and the "half clock, double width, same
throughput" equivalence the architecture relies on (§II-B/IV-A), which
:func:`repro.mem.hbm.core_port_clock_hz` derives from the channel spec.
"""

from repro.mem.hbm import HBMChannel, channel_throughput
from repro.mem.traffic import LinearTrafficGenerator, TrafficResult, run_channel_benchmark

__all__ = [
    "HBMChannel",
    "channel_throughput",
    "LinearTrafficGenerator",
    "TrafficResult",
    "run_channel_benchmark",
]

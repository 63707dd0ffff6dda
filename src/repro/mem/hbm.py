"""HBM channel and subsystem models.

Each of the 32 pseudo-channels is an independent server: a DRAM bus
shared by the channel's read and write traffic, with

* a raw byte rate of ``channel_clock x channel_width`` (14.4 GB/s),
* a refresh/protocol efficiency derating it to the measured ~12 GiB/s
  plateau of Fig. 2, and
* a fixed per-request service overhead (command issue, row activation
  ramp, benchmark turnaround) that makes *small* requests slow — the
  rising left side of Fig. 2 — and saturates around the 1 MiB request
  size the paper reports.

Without the optional crossbar the channels share nothing, which is the
paper's architectural bet: performance scales linearly in channels
(§II-B).  The crossbar model adds latency and a shared-switch
bandwidth ceiling, reproducing why the paper leaves it disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import MemoryModelError
from repro.platforms.specs import HBMSpec, HBM_XUPVVH
from repro.sim.engine import Engine, Event
from repro.sim.resource import SimResource, TokenBucket
from repro.units import GIB

__all__ = [
    "HBMChannel",
    "HBMSubsystem",
    "benchmark_extra_latency",
    "channel_throughput",
    "core_port_clock_hz",
    "plateau_bandwidth",
]

#: Fraction of raw channel bandwidth left after refresh and protocol
#: overheads.  Calibrated so the Fig. 2 plateau lands at the measured
#: ~12 GiB/s (raw 450 MHz x 32 B = 13.41 GiB/s x 0.895 = 12.0 GiB/s).
#: Decomposes as PROTOCOL_EFFICIENCY x (1 - TRFC/TREFI); the explicit
#: refresh mode applies the two factors separately.
REFRESH_PROTOCOL_EFFICIENCY = 0.895

#: Bus/protocol efficiency alone (command gaps, bank conflicts).
PROTOCOL_EFFICIENCY = 0.9781

#: Average refresh interval per pseudo-channel (DRAM tREFI).
TREFI_SECONDS = 3.9e-6

#: Refresh stall duration (per-bank refresh, tRFCpb class).  The pair
#: satisfies PROTOCOL_EFFICIENCY * (1 - TRFC/TREFI) = 0.895, so the
#: folded and explicit models agree in steady state (tested).
TRFC_SECONDS = 0.3315e-6

#: Intrinsic channel service overhead per request in seconds (command
#: issue, activation): what any master pays per request.
REQUEST_OVERHEAD_SECONDS = 0.2e-6

#: Additional turnaround of the paper's Fig. 2 benchmark block, which
#: keeps a single request outstanding per direction (issue, wait for
#: completion, re-arm).  Calibrated jointly with the intrinsic
#: overhead to place the Fig. 2 saturation knee at ~1 MiB requests.
#: The SPN Load/Store units do better: they stream bursts back to
#: back, so they only pay the intrinsic overhead.
BENCHMARK_TURNAROUND_SECONDS = 2.8e-6

#: Extra per-request latency when the optional crossbar is enabled.
CROSSBAR_LATENCY_SECONDS = 0.35e-6

#: Extra per-request latency of the converted attachment: the AXI
#: interconnect between a core port and its channel crosses clock
#: domains and packs/unpacks beats, a few cycles of each clock.
CONVERSION_LATENCY_SECONDS = 100e-9

#: Data width of an accelerator core's AXI4 memory port (§IV-A).
CORE_PORT_WIDTH_BITS = 512

#: Shared-switch ceiling of the crossbar, bytes/s.  Accessing foreign
#: channels funnels through the inter-stack switch network.
CROSSBAR_SHARED_BANDWIDTH = 96.0 * GIB


def plateau_bandwidth(spec: HBMSpec = HBM_XUPVVH) -> float:
    """Refresh- and protocol-derated channel rate, bytes/s: the level
    Fig. 2 saturates at (~12 GiB/s)."""
    return spec.raw_channel_bandwidth * REFRESH_PROTOCOL_EFFICIENCY


def core_port_clock_hz(spec: HBMSpec = HBM_XUPVVH) -> float:
    """Clock at which a core port moves a channel's raw byte rate.

    The §II-B/§IV-A equivalence: a :data:`CORE_PORT_WIDTH_BITS` port
    is twice as wide as a 256-bit channel, so it keeps up at half the
    450 MHz channel clock, i.e. at the cores' 225 MHz target.  The
    conversion between the two therefore costs latency
    (:data:`CONVERSION_LATENCY_SECONDS`), not bandwidth.
    """
    return spec.raw_channel_bandwidth / (CORE_PORT_WIDTH_BITS // 8)


def benchmark_extra_latency(
    *, use_smartconnect: bool = False, crossbar: bool = False
) -> float:
    """Per-request latency of the Fig. 2 benchmark block beyond the
    channel's intrinsic :data:`REQUEST_OVERHEAD_SECONDS`, seconds.

    The block keeps one request outstanding per direction, so it pays
    :data:`BENCHMARK_TURNAROUND_SECONDS` on every request, plus the
    conversion and crossbar latencies of the chosen attachment.  Both
    the closed form and the DES benchmark read this one sum.
    """
    extra = BENCHMARK_TURNAROUND_SECONDS
    if use_smartconnect:
        extra += CONVERSION_LATENCY_SECONDS
    if crossbar:
        extra += CROSSBAR_LATENCY_SECONDS
    return extra


def channel_throughput(
    request_bytes: int,
    *,
    spec: HBMSpec = HBM_XUPVVH,
    use_smartconnect: bool = False,
    crossbar: bool = False,
) -> float:
    """Closed-form combined R+W throughput of one channel, bytes/s.

    This is the analytic counterpart of the DES benchmark in
    :mod:`repro.mem.traffic`; the Fig. 2 experiment runs both and they
    must agree (tested).

    Parameters
    ----------
    request_bytes:
        Size of each linear read and each linear write request.
    use_smartconnect:
        Model the 225 MHz x 512 bit core-port attachment (adds the
        conversion latency per request) instead of the native
        450 MHz x 256 bit attachment.
    crossbar:
        Route through the optional crossbar (adds latency; the shared
        ceiling is irrelevant for a single channel but modelled for
        completeness).
    """
    if request_bytes <= 0:
        raise MemoryModelError(f"request_bytes must be positive, got {request_bytes}")
    effective = plateau_bandwidth(spec)
    if crossbar:
        effective = min(effective, CROSSBAR_SHARED_BANDWIDTH)
    overhead = REQUEST_OVERHEAD_SECONDS + benchmark_extra_latency(
        use_smartconnect=use_smartconnect, crossbar=crossbar
    )
    # The channel's single command engine serialises requests: each
    # request occupies the channel for its overhead plus its data time,
    # regardless of direction (reads and writes share the DRAM bus).
    per_request = overhead + request_bytes / effective
    return request_bytes / per_request


class HBMChannel:
    """Discrete-event model of one HBM pseudo-channel.

    Requests (reads and writes) share the channel's DRAM bus, modelled
    as a FIFO token bucket at the effective byte rate plus a fixed
    per-request overhead.  Use :meth:`transfer` from a simulation
    process and yield the returned event.
    """

    def __init__(
        self,
        env: Engine,
        index: int = 0,
        spec: HBMSpec = HBM_XUPVVH,
        *,
        extra_request_latency: float = 0.0,
        explicit_refresh: bool = False,
    ):
        if not 0 <= index:
            raise MemoryModelError(f"channel index must be >= 0, got {index}")
        self.env = env
        self.index = index
        self.spec = spec
        self.explicit_refresh = explicit_refresh
        if explicit_refresh:
            # Refresh stalls are simulated as events; only the bus
            # protocol derating is folded into the data rate.
            self.effective_bandwidth = spec.raw_channel_bandwidth * PROTOCOL_EFFICIENCY
        else:
            self.effective_bandwidth = plateau_bandwidth(spec)
        self.request_overhead = REQUEST_OVERHEAD_SECONDS + extra_request_latency
        # A single command engine serves one request at a time: the
        # per-request overhead occupies the channel, it does not
        # overlap with another request's data phase.
        self._engine = SimResource(env, capacity=1, name=f"hbm{index}-engine")
        # Plain statistics (``SimulatedDevice`` publishes them as
        # ``hbm.ch{i}.*`` metrics when a registry is attached).
        self.requests = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_seconds = 0.0
        self.refresh_count = 0
        self.refresh_stall_seconds = 0.0
        #: The Fig. 2 plateau the channel is judged against: the
        #: refresh-derated rate even when refresh is simulated
        #: explicitly (the stalls then show up as stall time).
        self.plateau_bandwidth = plateau_bandwidth(spec)
        #: Optional :class:`repro.obs.trace_export.SpanRecorder`; when attached
        #: (see :meth:`repro.host.device.SimulatedDevice.attach_tracer`)
        #: every request records a span on the ``hbm ch{i}`` track.
        #: Purely observational: recording only reads ``env.now``.
        self.tracer = None
        #: Optional :class:`repro.obs.metrics.TimeWeightedStat` of the
        #: engine's queue length, attached like :attr:`tracer`.
        self.queue_depth = None
        if explicit_refresh:
            env.process(self._refresh_loop(), name=f"hbm{index}-refresh")

    def _refresh_loop(self):
        """Periodic DRAM refresh: occupies the command engine for
        TRFC every TREFI (§V-D: "refresh cycles of the HBM also play a
        role").  Deadlines are absolute — a refresh delayed behind a
        long data burst is followed by catch-up refreshes, as the DRAM
        controller's postponed-refresh accounting requires."""
        deadline = TREFI_SECONDS
        while True:
            delay = deadline - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            grant = self._engine.request()
            yield grant
            try:
                # Catch up on every refresh that came due while the
                # engine was busy (postponed-refresh accounting).
                while True:
                    yield self.env.timeout(TRFC_SECONDS)
                    self.refresh_count += 1
                    self.refresh_stall_seconds += TRFC_SECONDS
                    deadline += TREFI_SECONDS
                    if deadline > self.env.now:
                        break
            finally:
                self._engine.release()

    @property
    def capacity_bytes(self) -> int:
        """Address space behind this channel (no crossbar)."""
        return self.spec.channel_capacity_bytes

    def transfer(self, n_bytes: int, *, is_write: bool = False) -> Event:
        """Move *n_bytes* through the channel; yields when complete.

        Implemented as a callback chain rather than a spawned process:
        a request is the hottest operation in the simulator, and the
        chain needs two heap events (grant, data occupancy) instead of
        the four a generator process would cost.
        """
        if n_bytes <= 0:
            raise MemoryModelError(f"n_bytes must be positive, got {n_bytes}")
        done = Event(self.env)
        granted_at = 0.0

        def on_done(_event: Event) -> None:
            # Grant the oldest queued waiter before signalling
            # completion, so a queued request beats one issued in
            # reaction to this transfer finishing.
            self._engine.release()
            if is_write:
                self.bytes_written += n_bytes
            else:
                self.bytes_read += n_bytes
            self.requests += 1
            self.busy_seconds += self.request_overhead + n_bytes / self.effective_bandwidth
            if self.queue_depth is not None:
                self.queue_depth.update(self._engine.queue_length, self.env.now)
            if self.tracer is not None:
                self.tracer.record(
                    f"hbm ch{self.index}",
                    "wr" if is_write else "rd",
                    granted_at,
                    self.env.now,
                )
            done.succeed(None)

        def on_grant(_event: Event) -> None:
            # Fixed command/activation overhead, then data occupancy.
            nonlocal granted_at
            granted_at = self.env.now
            busy = self.env.timeout(
                self.request_overhead + n_bytes / self.effective_bandwidth
            )
            # Direct append (not add_callback) keeps the timeout
            # poolable: nothing retains it past this callback.
            busy.callbacks.append(on_done)

        grant = self._engine.request()
        if self.queue_depth is not None:
            self.queue_depth.update(self._engine.queue_length, self.env.now)
        if grant.triggered:
            # Uncontended: the engine is ours already; schedule the data
            # phase now instead of waiting for the grant event's heap hop
            # (the absolute completion time is identical either way).
            on_grant(grant)
        else:
            grant.callbacks.append(on_grant)
        return done

    def account_fast_forward(
        self, n_reads: int, n_writes: int, bytes_read: int, bytes_written: int
    ) -> None:
        """Fold a fast-forwarded job's traffic into the channel counters.

        The steady-state fast path collapses a whole job into one
        timeout, so its requests never pass :meth:`transfer`; the core
        reports them here analytically.  Busy time is exact: every
        request costs its fixed overhead plus its data occupancy, so
        the sum telescopes to the expression below.
        """
        self.requests += n_reads + n_writes
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.busy_seconds += (
            (n_reads + n_writes) * self.request_overhead
            + (bytes_read + bytes_written) / self.effective_bandwidth
        )


class HBMSubsystem:
    """All pseudo-channels of one device, with optional crossbar.

    Without the crossbar, channel *i* can only reach its own address
    slice and channels are fully independent.  With the crossbar, any
    port reaches any address at extra latency, and all foreign-slice
    traffic shares the switch bandwidth.
    """

    def __init__(
        self,
        env: Engine,
        spec: HBMSpec = HBM_XUPVVH,
        *,
        crossbar: bool = False,
    ):
        self.env = env
        self.spec = spec
        self.crossbar = crossbar
        extra = CROSSBAR_LATENCY_SECONDS if crossbar else 0.0
        self.channels: List[HBMChannel] = [
            HBMChannel(env, index, spec, extra_request_latency=extra)
            for index in range(spec.n_channels)
        ]
        self._switch: Optional[TokenBucket] = (
            TokenBucket(env, CROSSBAR_SHARED_BANDWIDTH, 4096.0, name="hbm-xbar")
            if crossbar
            else None
        )

    def channel_for_address(self, address: int) -> int:
        """Channel index owning *address* (linear slicing)."""
        if not 0 <= address < self.spec.capacity_bytes:
            raise MemoryModelError(
                f"address {address:#x} outside HBM capacity "
                f"{self.spec.capacity_bytes:#x}"
            )
        return address // self.spec.channel_capacity_bytes

    def transfer(
        self, port: int, address: int, n_bytes: int, *, is_write: bool = False
    ) -> Event:
        """Issue a transfer from AXI *port* to *address*.

        Without the crossbar, crossing a channel boundary is a
        configuration error (the paper's architecture never does it:
        one channel per accelerator, managed by the runtime's memory
        manager).
        """
        if not 0 <= port < self.spec.n_channels:
            raise MemoryModelError(f"port {port} out of range")
        if n_bytes <= 0:
            raise MemoryModelError(f"n_bytes must be positive, got {n_bytes}")
        owner = self.channel_for_address(address)
        end_owner = self.channel_for_address(address + n_bytes - 1)
        if owner != end_owner:
            raise MemoryModelError(
                f"transfer {address:#x}+{n_bytes} spans channels {owner} and {end_owner}"
            )
        if owner != port and not self.crossbar:
            raise MemoryModelError(
                f"port {port} cannot reach channel {owner} without the crossbar"
            )
        if owner != port and self._switch is not None:
            done = Event(self.env)
            self.env.process(self._via_switch(owner, n_bytes, is_write, done))
            return done
        return self.channels[owner].transfer(n_bytes, is_write=is_write)

    def _via_switch(self, owner: int, n_bytes: int, is_write: bool, done: Event):
        yield self._switch.consume(float(n_bytes))
        yield self.channels[owner].transfer(n_bytes, is_write=is_write)
        done.succeed(None)

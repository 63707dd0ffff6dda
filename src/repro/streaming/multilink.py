"""Multi-link nodes with HBM buffering (the paper's closing outlook).

The conclusion sketches the next system: *"the combination of HBM and
100G networking could be very interesting for high-throughput
data-processing"*, with HBM as "a reasonable option for buffering,
especially when multiple 100G links are used to transport data in
between multiple nodes" (§V-C).

This module models that node: K ingress links land sample frames into
per-link HBM channel pairs (write once, read once — buffering doubles
the memory traffic), feeding replicated SPN cores.  The question it
answers quantitatively: **how many 100G links can one card's HBM
buffer before the memory, rather than the network, saturates?**
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import RuntimeConfigError
from repro.mem.hbm import HBMChannel
from repro.platforms.specs import HBMSpec, HBM_XUPVVH
from repro.platforms.streaming_model import STREAMING_100G
from repro.sim.channel import Channel, ClosedChannelError
from repro.sim.engine import Engine
from repro.streaming.mac import EthernetMac
from repro.units import GIB

__all__ = ["MultiLinkNodeResult", "MultiLinkBufferedNode", "max_links_for_hbm"]


def max_links_for_hbm(*, spec: HBMSpec = HBM_XUPVVH) -> int:
    """Links one card's HBM can buffer at line rate.

    Each link's payload stream (the measured 99.078 Gbit/s of
    :data:`~repro.platforms.streaming_model.STREAMING_100G`) is written
    into HBM and read back once (2x traffic).  With the practical
    per-channel rate and dedicated channel pairs per link, the binding
    constraint is channel count: each link needs enough channels to
    absorb 2x its payload rate.
    """
    payload_rate = STREAMING_100G.line_rate_bits / 8.0
    channels_per_link = math.ceil(2.0 * payload_rate / spec.practical_channel_bandwidth)
    return spec.n_channels // channels_per_link


@dataclass(frozen=True)
class MultiLinkNodeResult:
    """Outcome of one buffered-node run."""

    n_links: int
    n_samples: int
    elapsed_seconds: float
    bytes_per_sample: int
    hbm_bytes_moved: int

    @property
    def samples_per_second(self) -> float:
        """Aggregate inference throughput across all links."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_samples / self.elapsed_seconds

    @property
    def aggregate_ingest(self) -> float:
        """Payload bytes/s arriving over all links."""
        return self.samples_per_second * self.bytes_per_sample

    @property
    def hbm_traffic(self) -> float:
        """HBM bytes/s of buffering traffic (write + read back)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.hbm_bytes_moved / self.elapsed_seconds


class MultiLinkBufferedNode:
    """K ingress links -> HBM buffering -> replicated SPN cores."""

    def __init__(
        self,
        *,
        n_links: int,
        bytes_per_sample: int,
        cores_per_link: int = 2,
        core_clock_hz: float = 225e6,
        line_rate_bits: float = 100e9,
        hbm_spec: HBMSpec = HBM_XUPVVH,
    ):
        if n_links < 1:
            raise RuntimeConfigError(f"n_links must be >= 1, got {n_links}")
        if bytes_per_sample < 1:
            raise RuntimeConfigError(
                f"bytes_per_sample must be >= 1, got {bytes_per_sample}"
            )
        if cores_per_link < 1:
            raise RuntimeConfigError(f"cores_per_link must be >= 1, got {cores_per_link}")
        if 2 * n_links > hbm_spec.n_channels:
            raise RuntimeConfigError(
                f"{n_links} links need {2 * n_links} HBM channels (a write and "
                f"a read channel each); the device has {hbm_spec.n_channels}"
            )
        self.env = Engine()
        self.n_links = n_links
        self.bytes_per_sample = int(bytes_per_sample)
        self.cores_per_link = cores_per_link
        self.core_clock_hz = float(core_clock_hz)
        self.macs = [
            EthernetMac(self.env, line_rate_bits=line_rate_bits, name=f"rx{i}")
            for i in range(n_links)
        ]
        # A write channel and a read channel per link: ingress lands in
        # one, cores stream from the other (ping-pong across the pair).
        self.write_channels: List[HBMChannel] = [
            HBMChannel(self.env, 2 * i, hbm_spec) for i in range(n_links)
        ]
        self.read_channels: List[HBMChannel] = [
            HBMChannel(self.env, 2 * i + 1, hbm_spec) for i in range(n_links)
        ]

    def run(self, samples_per_link: int) -> MultiLinkNodeResult:
        """Stream *samples_per_link* through every link; returns totals."""
        if samples_per_link < 1:
            raise RuntimeConfigError(
                f"samples_per_link must be >= 1, got {samples_per_link}"
            )
        env = self.env
        samples_per_frame = max(
            1, self.macs[0].frame_payload // self.bytes_per_sample
        )

        # Frames are aggregated into 64 KiB bursts before touching HBM
        # (per-frame requests would waste the channel on overheads).
        burst_samples = max(1, (64 * 1024) // self.bytes_per_sample)

        def link_pipeline(link: int):
            received = Channel(env, capacity=2, name=f"link{link}-rxbuf")
            landed = Channel(env, capacity=4, name=f"link{link}-landed")
            readable = Channel(env, capacity=4, name=f"link{link}-read")

            def mac_rx():
                # Receive frames into a ping-pong burst buffer; the
                # writer drains it concurrently (double buffering).
                remaining = samples_per_link
                pending = 0
                while remaining > 0:
                    chunk = min(samples_per_frame, remaining)
                    yield self.macs[link].send_frame(chunk * self.bytes_per_sample)
                    pending += chunk
                    remaining -= chunk
                    if pending >= burst_samples or remaining == 0:
                        yield received.put(pending)
                        pending = 0
                received.close()

            def hbm_writer():
                while True:
                    try:
                        chunk = yield received.get()
                    except ClosedChannelError:
                        landed.close()
                        return
                    yield self.write_channels[link].transfer(
                        chunk * self.bytes_per_sample, is_write=True
                    )
                    yield landed.put(chunk)

            def reader():
                while True:
                    try:
                        chunk = yield landed.get()
                    except ClosedChannelError:
                        readable.close()
                        return
                    yield self.read_channels[link].transfer(
                        chunk * self.bytes_per_sample, is_write=False
                    )
                    yield readable.put(chunk)

            def compute():
                done = 0
                rate = self.cores_per_link * self.core_clock_hz
                while done < samples_per_link:
                    try:
                        chunk = yield readable.get()
                    except ClosedChannelError:
                        return
                    yield env.timeout(chunk / rate)
                    done += chunk

            return [
                env.process(mac_rx(), name=f"link{link}-rx"),
                env.process(hbm_writer(), name=f"link{link}-wr"),
                env.process(reader(), name=f"link{link}-rd"),
                env.process(compute(), name=f"link{link}-cores"),
            ]

        processes = []
        for link in range(self.n_links):
            processes.extend(link_pipeline(link))
        env.run(until_event=env.all_of(processes))
        moved = sum(c.bytes_written for c in self.write_channels) + sum(
            c.bytes_read for c in self.read_channels
        )
        return MultiLinkNodeResult(
            n_links=self.n_links,
            n_samples=self.n_links * samples_per_link,
            elapsed_seconds=env.now,
            bytes_per_sample=self.bytes_per_sample,
            hbm_bytes_moved=moved,
        )

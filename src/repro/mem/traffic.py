"""Traffic generators and the Fig. 2 channel microbenchmark.

:class:`LinearTrafficGenerator` reproduces the paper's "special
benchmark hardware block which generates linear memory reads and
writes in parallel" (§II-B): a read stream and a write stream of
fixed-size requests issued back to back against one channel.
:func:`run_channel_benchmark` drives it in the DES and reports the
measured combined throughput, which the Fig. 2 experiment sweeps over
request sizes and attachment configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError
from repro.mem.hbm import HBMChannel, benchmark_extra_latency
from repro.platforms.specs import HBMSpec, HBM_XUPVVH
from repro.sim.engine import Engine

__all__ = ["LinearTrafficGenerator", "TrafficResult", "run_channel_benchmark"]


@dataclass(frozen=True)
class TrafficResult:
    """Outcome of one channel benchmark run."""

    request_bytes: int
    n_requests: int
    elapsed_seconds: float
    bytes_moved: int

    @property
    def throughput(self) -> float:
        """Combined read+write bytes/s."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed_seconds


class LinearTrafficGenerator:
    """Parallel linear read+write request streams against one channel."""

    def __init__(
        self,
        env: Engine,
        channel: HBMChannel,
        request_bytes: int,
        n_requests: int,
    ):
        if request_bytes <= 0:
            raise MemoryModelError(f"request_bytes must be positive, got {request_bytes}")
        if n_requests <= 0:
            raise MemoryModelError(f"n_requests must be positive, got {n_requests}")
        self.env = env
        self.channel = channel
        self.request_bytes = request_bytes
        self.n_requests = n_requests

    def _stream(self, is_write: bool):
        for _ in range(self.n_requests):
            yield self.channel.transfer(self.request_bytes, is_write=is_write)

    def run(self):
        """Process body: issue both streams and wait for completion."""
        readers = self.env.process(self._stream(False), name="traffic-read")
        writers = self.env.process(self._stream(True), name="traffic-write")
        yield self.env.all_of([readers, writers])


def run_channel_benchmark(
    request_bytes: int,
    *,
    n_requests: int = 64,
    spec: HBMSpec = HBM_XUPVVH,
    use_smartconnect: bool = False,
    crossbar: bool = False,
) -> TrafficResult:
    """Measure one channel's combined R+W throughput in the DES.

    Mirrors :func:`repro.mem.hbm.channel_throughput`'s parameters; the
    two are cross-validated in the test suite.
    """
    env = Engine()
    extra = benchmark_extra_latency(use_smartconnect=use_smartconnect, crossbar=crossbar)
    channel = HBMChannel(env, 0, spec, extra_request_latency=extra)
    generator = LinearTrafficGenerator(env, channel, request_bytes, n_requests)
    done = env.process(generator.run(), name="traffic")
    env.run(until_event=done)
    moved = channel.bytes_read + channel.bytes_written
    return TrafficResult(
        request_bytes=request_bytes,
        n_requests=n_requests,
        elapsed_seconds=env.now,
        bytes_moved=moved,
    )

"""The shared PCIe DMA engine model.

All host<->device traffic funnels through one DMA engine attached to
the PCIe endpoint.  Its sustained behaviour follows the weighted-
capacity model calibrated in :class:`repro.platforms.specs.PCIeSpec`:
host-to-device bytes cost 1.0, device-to-host bytes cost
``d2h_weight``, and the engine drains weighted bytes at
``weighted_capacity``.  Each transfer additionally pays a fixed setup
latency (descriptor ring, doorbell, completion interrupt).

The engine is the paper's measured bottleneck; every end-to-end
experiment exercises this model.  It is a FIFO rate server behind a
fixed setup delay, so a transfer's completion time is known when it is
requested: the setup delay is the same for every transfer, so transfers
reach the token bucket in request order, and
:meth:`~repro.sim.resource.TokenBucket.reserve` returns the FIFO
completion time in closed form.  A transfer is therefore one
``timeout_until`` event and no process.
"""

from __future__ import annotations

from repro.errors import RuntimeConfigError
from repro.platforms.specs import PCIE_GEN3_X16, PCIeSpec
from repro.sim.engine import Engine, Event
from repro.sim.resource import TokenBucket

__all__ = ["DmaEngine"]


class DmaEngine:
    """Discrete-event model of the shared host DMA engine."""

    def __init__(self, env: Engine, spec: PCIeSpec = PCIE_GEN3_X16):
        self.env = env
        self.spec = spec
        # Weighted engine time is metered by a token bucket; the burst
        # is one maximum TLP-ish chunk so short transfers don't see
        # artificial smoothing.
        self._bucket = TokenBucket(
            env, rate=spec.weighted_capacity, burst=4096.0, name=f"dma-{spec.name}"
        )
        # Plain statistics, counted when a transfer is issued, so they
        # include any transfer still in flight (``SimulatedDevice``
        # publishes them as ``dma.*`` metrics).
        self.requests_h2d = 0
        self.requests_d2h = 0
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        #: Engine occupancy: the serialized drain time of the weighted
        #: bytes.  Setup latency is left out: setups of queued transfers
        #: overlap one another and the drain, so summing them would put
        #: a saturated engine's busy time above the elapsed time.
        self.busy_seconds = 0.0

    def copy_to_device(self, n_bytes: int) -> Event:
        """Host-to-device transfer; yields on completion."""
        return self.env.timeout_until(self.reserve(n_bytes, True, self.env.now))

    def copy_from_device(self, n_bytes: int) -> Event:
        """Device-to-host transfer; yields on completion."""
        return self.env.timeout_until(self.reserve(n_bytes, False, self.env.now))

    def reserve(self, n_bytes: int, to_device: bool, at: float) -> float:
        """Queue a transfer issued at time *at*; return when it completes.

        Counts the transfer and pays the setup latency.  Issues must come
        in time order (ties in call order), as
        :meth:`~repro.sim.resource.TokenBucket.reserve` requires.
        """
        if n_bytes <= 0:
            raise RuntimeConfigError(f"transfer needs positive size, got {n_bytes}")
        spec = self.spec
        weight = 1.0 if to_device else spec.d2h_weight
        end = self._bucket.reserve(n_bytes * weight, at + spec.transfer_setup_latency)
        if to_device:
            self.requests_h2d += 1
            self.bytes_to_device += n_bytes
        else:
            self.requests_d2h += 1
            self.bytes_from_device += n_bytes
        self.busy_seconds += n_bytes * weight / spec.weighted_capacity
        return end

    def checkpoint(self) -> tuple:
        """The engine's reservation state and counters, for :meth:`rollback`."""
        return dict(vars(self)), dict(vars(self._bucket))

    def rollback(self, state: tuple) -> None:
        """Forget every reservation made since *state* was checkpointed."""
        engine, bucket = state
        vars(self).update(engine)
        vars(self._bucket).update(bucket)

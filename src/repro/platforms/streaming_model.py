"""Model of the 100G in-network streaming architecture [7].

§V-D compares the HBM architecture's NIPS80 throughput against the
group's streaming design, which feeds replicated SPN cores directly
from a 100G network MAC with no memory accesses at all.  Its rate is
simply the network line rate divided by the per-sample wire bytes —
the paper derives 140,748,580 samples/s for NIPS80 from the measured
99.078 Gbit/s MAC throughput and 88 bytes per sample.

The same line rate sizes the §VII outlook: how many 100G links one
card's HBM can buffer (:func:`max_links_for_hbm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ReproError
from repro.platforms.specs import HBMSpec, HBM_XUPVVH

__all__ = ["StreamingModel", "STREAMING_100G", "max_links_for_hbm"]


@dataclass(frozen=True)
class StreamingModel:
    """Line-rate streaming inference (network-attached cores)."""

    name: str
    #: Sustained MAC throughput in bits/s (measured in [7]).
    line_rate_bits: float

    def samples_per_second(self, bytes_per_sample: int) -> float:
        """Line-rate-bound samples/s for a given wire format."""
        if bytes_per_sample < 1:
            raise ReproError(
                f"bytes_per_sample must be >= 1, got {bytes_per_sample}"
            )
        return self.line_rate_bits / (8.0 * bytes_per_sample)


#: The measured 99.078 Gbit/s of [7].
STREAMING_100G = StreamingModel(name="streaming-100g", line_rate_bits=99.078e9)


def max_links_for_hbm(*, spec: HBMSpec = HBM_XUPVVH) -> int:
    """Links one card's HBM can buffer at line rate.

    Each link's payload stream (the measured 99.078 Gbit/s of
    :data:`STREAMING_100G`) is written into HBM and read back once (2x
    traffic).  With the practical per-channel rate and dedicated
    channel pairs per link, the binding constraint is channel count:
    each link needs enough channels to absorb 2x its payload rate.
    """
    payload_rate = STREAMING_100G.line_rate_bits / 8.0
    channels_per_link = math.ceil(2.0 * payload_rate / spec.practical_channel_bandwidth)
    return spec.n_channels // channels_per_link

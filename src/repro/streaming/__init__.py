"""The 100G network side of the paper's closing outlook (§VII).

§V-D's streaming comparison point (140.7 M NIPS80 samples/s at line
rate) is line rate divided by wire bytes, computed once by
:mod:`repro.platforms.streaming_model`.  This package models what that
closed form cannot: a node whose HBM buffers several 100G links —
Ethernet MAC ingress → HBM write channel → HBM read channel →
replicated SPN cores, simulated frame by frame — and how many links
one card's HBM can absorb before the memory, not the network,
saturates.
"""

from repro.streaming.mac import EthernetMac, FRAME_OVERHEAD_BYTES
from repro.streaming.multilink import (
    MultiLinkBufferedNode,
    MultiLinkNodeResult,
    max_links_for_hbm,
)

__all__ = [
    "EthernetMac",
    "FRAME_OVERHEAD_BYTES",
    "MultiLinkBufferedNode",
    "MultiLinkNodeResult",
    "max_links_for_hbm",
]

"""Golden simulated rates: every Fig. 4 timestamp pinned bit for bit.

The fast-forward/burst-granular comparison and the paper-anchor tests
cannot see a change to the shared DMA model that moves every timestamp
by a little: both core models sit behind the same ``DmaEngine``, and
the anchors allow several percent.  These ``float.hex`` values pin the
left (on-device) and right (end-to-end) panel of all five NIPS networks
at 1, 3, 5 and 8 PEs, so a change meant only to make the simulator
faster must leave every one of them identical.
"""

import pytest

from repro.experiments import run_fig4
from repro.spn.nips import NIPS_BENCHMARKS

PE_COUNTS = (1, 3, 5, 8)

#: network -> (end-to-end rates, on-device rates) at PE_COUNTS, 1 M
#: samples per core, one control thread per PE.
GOLDEN = {
    "NIPS10": (
        ("0x1.f22039fc4354fp+26", "0x1.65a5001bf5be8p+28",
         "0x1.0b09d7566d103p+29", "0x1.1f80f61b2031dp+29"),
        ("0x1.5ec01fb21e790p+27", "0x1.f9828adef036ep+28",
         "0x1.a5421e6472d87p+29", "0x1.5101b1e9f579fp+30"),
    ),
    "NIPS20": (
        ("0x1.78ce1a6bfc9bfp+26", "0x1.1611eb1b6022ep+28",
         "0x1.6605b2c104f7dp+28", "0x1.6924ab99a94b5p+28"),
        ("0x1.2dd9afca6713cp+27", "0x1.c26ad1599a1b8p+28",
         "0x1.750be3bb06065p+29", "0x1.28472d3dac70bp+30"),
    ),
    "NIPS30": (
        ("0x1.2eefea99a553ap+26", "0x1.a46e58525f750p+27",
         "0x1.0455ec6100197p+28", "0x1.063de6ac32652p+28"),
        ("0x1.06a70ab1cd0ebp+27", "0x1.868df7d05a91bp+28",
         "0x1.45764e82f6241p+29", "0x1.045ea53591b67p+30"),
    ),
    "NIPS40": (
        ("0x1.f9813ec13dad0p+25", "0x1.4a0175e09d596p+27",
         "0x1.9a84342af156cp+27", "0x1.9bf7c82dbb0dcp+27"),
        ("0x1.d27e7a6b80524p+26", "0x1.5c75f40d2eafdp+28",
         "0x1.210133b32fc6bp+29", "0x1.cccdad954ee2cp+29"),
    ),
    "NIPS80": (
        ("0x1.191de5d24474dp+25", "0x1.5e97fded91f6ep+26",
         "0x1.aab87eeaa06cdp+26", "0x1.bb8aad49ec8f9p+26"),
        ("0x1.1067e7361cf8cp+26", "0x1.96fe461f907d8p+27",
         "0x1.52e5f6678e5c9p+28", "0x1.0f1e5eb93eb07p+29"),
    ),
}


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(
        NIPS_BENCHMARKS, PE_COUNTS, samples_per_core=1_000_000, workers=1
    )


@pytest.mark.parametrize("network", NIPS_BENCHMARKS)
def test_end_to_end_rates_bit_identical(fig4, network):
    rates = tuple(rate.hex() for rate in fig4.with_transfers[network])
    assert rates == GOLDEN[network][0]


@pytest.mark.parametrize("network", NIPS_BENCHMARKS)
def test_on_device_rates_bit_identical(fig4, network):
    rates = tuple(rate.hex() for rate in fig4.without_transfers[network])
    assert rates == GOLDEN[network][1]

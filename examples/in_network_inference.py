#!/usr/bin/env python3
"""In-network streaming inference vs the HBM architecture (§V-D, §VII).

Prints the paper's closing comparison on NIPS80: the 100G streaming
variant ([7]) runs at line rate divided by wire bytes and wins ~21%
because it never touches memory, but needs 100G infrastructure; the
HBM card is the smaller-deployment alternative.  Then the §VII
outlook: how many 100G links one card's HBM can buffer, simulated
frame by frame.

Run:  python examples/in_network_inference.py
"""

from repro.experiments.fig6_end_to_end import run_fig6
from repro.experiments.reference import PAPER
from repro.experiments.speedups import run_speedups
from repro.streaming import MultiLinkBufferedNode, max_links_for_hbm
from repro.units import GIB


def main():
    # The paper's §V-D head-to-head on NIPS80 (the `repro speedups` row).
    result = run_speedups(run_fig6(["NIPS80"]))
    print(
        f"NIPS80 head-to-head: streaming {result.streaming_nips80 / 1e6:.1f} M/s "
        f"vs HBM {result.hbm_nips80 / 1e6:.1f} M/s -> "
        f"{result.streaming_advantage:.2f}x (paper: "
        f"{PAPER.streaming_nips80_rate / 1e6:.1f} vs {PAPER.nips80_rate / 1e6:.1f}, "
        f"{PAPER.streaming_nips80_rate / PAPER.nips80_rate:.2f}x)"
    )
    print(
        "The streaming pipeline never touches memory; the HBM card trades that "
        "margin for deployability without 100G infrastructure."
    )

    # The paper's closing outlook: HBM as a buffer for many 100G links.
    links = max_links_for_hbm()
    node = MultiLinkBufferedNode(n_links=links, bytes_per_sample=88, cores_per_link=1)
    outlook = node.run(100_000)
    print(
        f"\nOutlook (SectionVII): one card's HBM can buffer {links} x 100G links -> "
        f"{outlook.samples_per_second / 1e6:,.0f} M samples/s aggregate, "
        f"{outlook.hbm_traffic / GIB:.0f} GiB/s of buffering traffic "
        f"(under the 384 GiB/s practical HBM total)."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""HBM channel microbenchmark: the Fig. 2 experiment plus ablations.

Sweeps request sizes against one HBM pseudo-channel for both
attachment configurations, then runs the two ablations the paper
discusses but does not plot: the optional crossbar's cost (closed
form), and how channel *independence* makes aggregate bandwidth scale
linearly with channel count.

Run:  python examples/hbm_channel_sweep.py
"""

from repro import channel_throughput
from repro.experiments import format_fig2, run_fig2
from repro.experiments.reporting import format_table
from repro.mem import HBMChannel
from repro.sim import Engine
from repro.units import GIB, KIB, MIB


def crossbar_ablation():
    rows = []
    for size in (16 * KIB, 256 * KIB, 1 * MIB):
        direct = channel_throughput(size)
        routed = channel_throughput(size, crossbar=True)
        rows.append(
            [
                f"{size // KIB} KiB",
                direct / GIB,
                routed / GIB,
                f"{(1 - routed / direct) * 100:.1f}%",
            ]
        )
    print(
        format_table(
            ["request", "direct (GiB/s)", "via crossbar (GiB/s)", "loss"],
            rows,
            title="Ablation: the optional crossbar costs latency (paper: left disabled)",
        )
    )


def independence_ablation():
    rows = []
    for n_channels in (1, 4, 16, 32):
        env = Engine()
        channels = [HBMChannel(env, index) for index in range(n_channels)]

        def stream(channel):
            for _ in range(8):
                yield channel.transfer(1 * MIB)

        done = env.all_of([env.process(stream(c)) for c in channels])
        env.run(until_event=done)
        total = n_channels * 8 * MIB / env.now
        rows.append([n_channels, total / GIB, total / n_channels / GIB])
    print(
        format_table(
            ["channels", "aggregate (GiB/s)", "per channel (GiB/s)"],
            rows,
            title="Ablation: independent channels scale linearly (no crossbar)",
        )
    )


def main():
    print(format_fig2(run_fig2()))
    print()
    crossbar_ablation()
    print()
    independence_ablation()


if __name__ == "__main__":
    main()

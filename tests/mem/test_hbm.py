"""Unit tests for the HBM channel model and its closed form."""

import pytest

from repro.errors import MemoryModelError
from repro.mem import HBMChannel, channel_throughput, run_channel_benchmark
from repro.mem.hbm import CONVERSION_LATENCY_SECONDS, CORE_PORT_WIDTH_BITS, core_port_clock_hz
from repro.platforms.specs import HBM_XUPVVH, XUPVVH_HBM_PLATFORM
from repro.sim import Engine
from repro.units import GIB, KIB, MHZ, MIB


class TestChannelThroughputCurve:
    def test_monotone_in_request_size(self):
        sizes = [4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB]
        rates = [channel_throughput(s) for s in sizes]
        assert rates == sorted(rates)

    def test_plateau_near_12_gib(self):
        """Fig. 2's plateau: ~12 GiB/s combined at >= 1 MiB requests."""
        assert channel_throughput(1 * MIB) / GIB == pytest.approx(12.0, rel=0.05)
        assert channel_throughput(4 * MIB) / GIB == pytest.approx(12.0, rel=0.02)

    def test_saturation_knee_at_one_mib(self):
        """Beyond 1 MiB "no further performance improvements" (§II-B)."""
        at_knee = channel_throughput(1 * MIB)
        beyond = channel_throughput(4 * MIB)
        assert (beyond - at_knee) / at_knee < 0.05

    def test_small_requests_much_slower(self):
        assert channel_throughput(4 * KIB) < 0.2 * channel_throughput(1 * MIB)

    def test_smartconnect_config_equivalent(self):
        """Fig. 2's second insight: the 225 MHz x 512 bit attachment
        performs the same as the native 450 MHz connection."""
        for size in (64 * KIB, 1 * MIB):
            native = channel_throughput(size)
            converted = channel_throughput(size, use_smartconnect=True)
            assert abs(native - converted) / native < 0.04

    def test_half_clock_double_width_is_the_core_clock(self):
        """§II-B/§IV-A: a 512-bit core port matches a 450 MHz x 256 bit
        channel byte for byte at half the clock, which is the platform's
        225 MHz target, so conversion costs latency, not bandwidth."""
        assert CORE_PORT_WIDTH_BITS == 2 * HBM_XUPVVH.channel_width_bits
        assert core_port_clock_hz() == HBM_XUPVVH.channel_clock_hz / 2
        assert core_port_clock_hz() == XUPVVH_HBM_PLATFORM.target_clock_mhz * MHZ
        # Per request, conversion adds its latency and no data time.
        native = 1 * MIB / channel_throughput(1 * MIB)
        converted = 1 * MIB / channel_throughput(1 * MIB, use_smartconnect=True)
        assert converted - native == pytest.approx(CONVERSION_LATENCY_SECONDS)

    def test_crossbar_costs_performance(self):
        assert channel_throughput(64 * KIB, crossbar=True) < channel_throughput(64 * KIB)

    def test_invalid_size_rejected(self):
        with pytest.raises(MemoryModelError):
            channel_throughput(0)


_ATTACHMENTS = {
    "native": {},
    "smartconnect": {"use_smartconnect": True},
    "crossbar": {"crossbar": True},
}


class TestDesMatchesAnalytic:
    @pytest.mark.parametrize(
        "size,attachment",
        [
            pytest.param(size, name, id=str(size) if name == "native" else f"{size}-{name}")
            for name in _ATTACHMENTS
            for size in (4 * KIB, 64 * KIB, 1 * MIB)
        ],
    )
    def test_des_equals_closed_form(self, size, attachment):
        options = _ATTACHMENTS[attachment]
        analytic = channel_throughput(size, **options)
        measured = run_channel_benchmark(size, n_requests=32, **options).throughput
        assert measured == pytest.approx(analytic, rel=0.02)


class TestHBMChannelDes:
    def test_transfer_counts_bytes(self):
        env = Engine()
        channel = HBMChannel(env)

        def proc():
            yield channel.transfer(4096, is_write=False)
            yield channel.transfer(8192, is_write=True)

        done = env.process(proc())
        env.run(until_event=done)
        assert channel.bytes_read == 4096
        assert channel.bytes_written == 8192

    def test_requests_serialised_on_one_channel(self):
        env = Engine()
        channel = HBMChannel(env)
        times = []

        def proc(tag):
            yield channel.transfer(1 * MIB)
            times.append((tag, env.now))

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        # Second completes roughly one transfer-time after the first.
        assert times[1][1] == pytest.approx(2 * times[0][1], rel=0.01)

    def test_invalid_transfer_rejected(self):
        env = Engine()
        with pytest.raises(MemoryModelError):
            HBMChannel(env).transfer(0)

    def test_channels_are_independent(self):
        """The architectural bet (§II-B): per-channel performance does
        not degrade when other channels are busy."""
        def run(n_channels):
            env = Engine()
            channels = [HBMChannel(env, index) for index in range(n_channels)]

            def proc(channel):
                for _ in range(4):
                    yield channel.transfer(1 * MIB)

            done = env.all_of([env.process(proc(c)) for c in channels])
            env.run(until_event=done)
            return env.now

        assert run(8) == pytest.approx(run(1), rel=1e-9)

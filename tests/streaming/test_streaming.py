"""Tests for the 100G Ethernet MAC model of the §VII outlook."""

import pytest

from repro.errors import MemoryModelError
from repro.platforms.streaming_model import STREAMING_100G
from repro.sim import Engine
from repro.streaming import EthernetMac, FRAME_OVERHEAD_BYTES


class TestEthernetMac:
    def test_payload_rate_matches_measured_99_078(self):
        """[7] measured 99.078 Gbit/s of payload on the 100G link; the
        calibrated frame size reproduces the line rate §V-D divides by."""
        mac = EthernetMac(Engine())
        assert mac.payload_rate_bits == pytest.approx(
            STREAMING_100G.line_rate_bits, rel=1e-6
        )

    def test_frame_overhead_is_24_bytes(self):
        assert FRAME_OVERHEAD_BYTES == 24

    def test_wire_time_includes_overhead(self):
        env = Engine()
        mac = EthernetMac(env, line_rate_bits=100e9, frame_payload=1000)

        def proc():
            yield mac.send_frame(1000)
            yield mac.send_frame(1000)

        env.run(until_event=env.process(proc()))
        expected = 2 * (1000 + 24) / (100e9 / 8)
        assert env.now == pytest.approx(expected, rel=1e-6)

    def test_oversized_payload_rejected(self):
        mac = EthernetMac(Engine(), frame_payload=100)
        with pytest.raises(MemoryModelError):
            mac.send_frame(101)

    def test_counters(self):
        env = Engine()
        mac = EthernetMac(env)

        def proc():
            yield mac.send_frame(500)

        env.run(until_event=env.process(proc()))
        assert mac.frames == 1
        assert mac.payload_bytes == 500

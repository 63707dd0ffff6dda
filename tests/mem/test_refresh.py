"""The folded refresh derating against an explicit refresh oracle.

:class:`~repro.mem.hbm.HBMChannel` folds DRAM refresh into its data
rate (``REFRESH_PROTOCOL_EFFICIENCY``).  The oracle here simulates the
refresh stalls as events instead: a plain channel runs at
``PROTOCOL_EFFICIENCY`` alone while :func:`_refresh_loop` holds its
command engine for ``TRFC`` every ``TREFI``.  The two must agree in
steady state.
"""

import pytest

from repro.mem.hbm import (
    HBMChannel,
    PROTOCOL_EFFICIENCY,
    REFRESH_PROTOCOL_EFFICIENCY,
    TREFI_SECONDS,
    TRFC_SECONDS,
)
from repro.sim import Engine
from repro.units import MIB


def _refresh_loop(channel, refreshes):
    """Periodic DRAM refresh: occupies the channel's command engine for
    TRFC every TREFI (§V-D: "refresh cycles of the HBM also play a
    role"), appending one entry to *refreshes* per refresh.  Deadlines
    are absolute: a refresh delayed behind a long data burst is
    followed by catch-up refreshes, as the DRAM controller's
    postponed-refresh accounting requires."""
    env = channel.env
    engine = channel._engine
    deadline = TREFI_SECONDS
    while True:
        delay = deadline - env.now
        if delay > 0:
            yield env.timeout(delay)
        yield engine.request()
        try:
            while True:
                yield env.timeout(TRFC_SECONDS)
                refreshes.append(env.now)
                deadline += TREFI_SECONDS
                if deadline > env.now:
                    break
        finally:
            engine.release()


def _run(explicit, size=1 * MIB, n=48):
    """Stream *n* reads of *size*; return the achieved rate and the
    refreshes the oracle made (none when *explicit* is false)."""
    env = Engine()
    channel = HBMChannel(env, 0)
    refreshes = []
    if explicit:
        # Only the bus protocol derating stays in the data rate; the
        # refresh stalls are simulated.
        channel.effective_bandwidth = channel.spec.raw_channel_bandwidth * PROTOCOL_EFFICIENCY
        env.process(_refresh_loop(channel, refreshes), name="hbm0-refresh")

    def proc():
        for _ in range(n):
            yield channel.transfer(size)

    env.run(until_event=env.process(proc()))
    return n * size / env.now, len(refreshes), env.now


def test_constants_consistent():
    """The folded efficiency must equal protocol x refresh losses."""
    derived = PROTOCOL_EFFICIENCY * (1.0 - TRFC_SECONDS / TREFI_SECONDS)
    assert derived == pytest.approx(REFRESH_PROTOCOL_EFFICIENCY, rel=1e-3)


def test_explicit_matches_folded_steady_state():
    folded, _, _ = _run(False)
    explicit, _, _ = _run(True)
    assert explicit == pytest.approx(folded, rel=0.01)


def test_refresh_rate_tracks_trefi():
    _, refresh_count, elapsed = _run(True)
    expected = elapsed / TREFI_SECONDS
    assert refresh_count == pytest.approx(expected, rel=0.05)


def test_refresh_occupies_expected_fraction():
    """Refresh stalls should consume ~TRFC/TREFI (= ~8.5%) of channel
    time at saturation — the §V-D remark that refresh matters at peak
    rates."""
    _, refresh_count, elapsed = _run(True)
    stall_fraction = refresh_count * TRFC_SECONDS / elapsed
    assert stall_fraction == pytest.approx(TRFC_SECONDS / TREFI_SECONDS, rel=0.06)

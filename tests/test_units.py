"""Unit tests for unit constants and the alignment helper."""

import pytest

from repro import units


def test_binary_prefixes():
    assert units.KIB == 1024
    assert units.MIB == 1024**2
    assert units.GIB == 1024**3
    assert units.TIB == 1024**4


def test_si_prefixes_differ_from_binary():
    assert units.GB == 1_000_000_000
    assert units.GIB > units.GB


def test_align_up():
    assert units.align_up(1, 4096) == 4096
    assert units.align_up(4096, 4096) == 4096
    assert units.align_up(4097, 4096) == 8192
    with pytest.raises(ValueError):
        units.align_up(1, 0)

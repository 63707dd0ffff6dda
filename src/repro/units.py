"""Unit constants and the alignment helper used across the library.

The paper mixes SI and binary prefixes (GB/s vs GiB/s) and bit- vs
byte-denominated rates.  Centralising the constants here keeps every
model honest about which unit it is using and makes conversions explicit
at call sites instead of burying magic factors inside models.

All simulation time is kept in **seconds** (float) and all clocked
component math in **cycles** (int) with an explicit frequency.
"""

from __future__ import annotations

# --- binary byte prefixes -------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- SI byte prefixes (vendor bandwidth quotes use these) -----------------
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# --- frequency ------------------------------------------------------------
KHZ = 1.0e3
MHZ = 1.0e6
GHZ = 1.0e9

# --- time -----------------------------------------------------------------
NS = 1.0e-9
US = 1.0e-6
MS = 1.0e-3


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment* (power of two
    not required)."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment

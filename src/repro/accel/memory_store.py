"""Functional backing store of one HBM channel / memory region.

The timing models (:mod:`repro.mem`) move *time*; this class moves the
actual *bytes*, so end-to-end runs produce real inference results that
tests can compare against the software reference.  Keeping the two
concerns separate means a model's timing behaviour never depends on
whether payloads are materialised.

Storage is **page-sparse**: a device region covers a whole HBM
pseudo-channel (256 MiB on the XUP-VVH) but a simulation only ever
touches the buffers the runtime allocates, so pages materialise on
first write and reads of untouched space return zeros — like the
zero-initialised DRAM a fresh allocation sees.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["ChannelMemory"]

#: Bytes per backing page.
_PAGE_BYTES = 64 * 1024


class ChannelMemory:
    """A byte-addressable, bounds-checked, page-sparse memory region."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise MemoryModelError(
                f"capacity must be positive, got {capacity_bytes}"
            )
        self.capacity = int(capacity_bytes)
        self._pages: Dict[int, bytearray] = {}

    def _check(self, address: int, n_bytes: int) -> None:
        if n_bytes < 0:
            raise MemoryModelError(f"negative length {n_bytes}")
        if address < 0 or address + n_bytes > self.capacity:
            raise MemoryModelError(
                f"access [{address:#x}, {address + n_bytes:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    @property
    def resident_bytes(self) -> int:
        """Bytes of actually materialised backing pages."""
        return len(self._pages) * _PAGE_BYTES

    def write(self, address: int, payload: bytes) -> None:
        """Store *payload* at *address*."""
        self._check(address, len(payload))
        offset = 0
        remaining = len(payload)
        while remaining > 0:
            page_index, page_offset = divmod(address + offset, _PAGE_BYTES)
            chunk = min(_PAGE_BYTES - page_offset, remaining)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(_PAGE_BYTES)
                self._pages[page_index] = page
            page[page_offset: page_offset + chunk] = payload[offset: offset + chunk]
            offset += chunk
            remaining -= chunk

    def read(self, address: int, n_bytes: int) -> bytes:
        """Load *n_bytes* from *address* (untouched space reads zero)."""
        self._check(address, n_bytes)
        out = bytearray(n_bytes)
        offset = 0
        remaining = n_bytes
        while remaining > 0:
            page_index, page_offset = divmod(address + offset, _PAGE_BYTES)
            chunk = min(_PAGE_BYTES - page_offset, remaining)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset: offset + chunk] = page[page_offset: page_offset + chunk]
            offset += chunk
            remaining -= chunk
        return bytes(out)

    def read_array(self, address: int, dtype, count: int) -> np.ndarray:
        """Load a typed numpy copy (e.g. results as float64)."""
        dtype = np.dtype(dtype)
        raw = self.read(address, dtype.itemsize * count)
        return np.frombuffer(raw, dtype=dtype).copy()

    def write_array(self, address: int, array: np.ndarray) -> None:
        """Store a numpy array's bytes at *address*."""
        self.write(address, np.ascontiguousarray(array).tobytes())

"""Thread-safe per-HBM-block device memory management.

§IV-B: "TaPaSCo currently does not support to split the device address
space into distinct memory regions, so ... our SPN runtime implements
its own thread-safe device memory manager, which allows to manage the
distinct HBM memory blocks separately.  The device memory manager in
our runtime supports allocation and freeing of memory blocks in a
specific HBM block."

:class:`MemoryBlockAllocator` is a classic first-fit free-list
allocator with coalescing over one HBM block's address slice;
:class:`DeviceMemoryManager` holds one allocator per block.  Both are
safe for concurrent use from real Python threads (one lock per block,
so allocations in different HBM blocks never contend — mirroring the
independence of the blocks themselves).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Tuple

from repro.errors import AllocationError
from repro.units import align_up

__all__ = ["MemoryBlockAllocator", "DeviceMemoryManager"]

#: Allocation granularity: AXI-friendly 4 KiB alignment.
ALLOCATION_ALIGNMENT = 4096


class MemoryBlockAllocator:
    """First-fit allocator with free-list coalescing for one region."""

    def __init__(
        self,
        base: int,
        capacity: int,
        alignment: int = ALLOCATION_ALIGNMENT,
    ):
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        if base < 0:
            raise AllocationError(f"base must be >= 0, got {base}")
        if alignment <= 0:
            raise AllocationError(f"alignment must be positive, got {alignment}")
        self.base = base
        self.capacity = capacity
        self.alignment = alignment
        self._lock = threading.Lock()
        self._free: List[Tuple[int, int]] = [(base, capacity)]  # (addr, size)
        self._allocated: Dict[int, int] = {}
        # Plain statistics (``SimulatedDevice`` publishes them as
        # ``mem.block{i}.*`` metrics): alloc/free counts, transient
        # failures, and the allocated bytes (after alignment rounding)
        # with their high-water mark.
        self.allocs = 0
        self.frees = 0
        self.alloc_failures = 0
        self.bytes_allocated = 0
        self.peak_bytes_allocated = 0

    def alloc(self, n_bytes: int) -> int:
        """Allocate *n_bytes* (rounded up to the alignment); returns the
        device address.  Raises :class:`AllocationError` when no free
        range fits."""
        if n_bytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {n_bytes}")
        size = align_up(n_bytes, self.alignment)
        with self._lock:
            for index, (addr, free_size) in enumerate(self._free):
                if free_size >= size:
                    remainder = free_size - size
                    if remainder:
                        self._free[index] = (addr + size, remainder)
                    else:
                        del self._free[index]
                    self._allocated[addr] = size
                    self.allocs += 1
                    self.bytes_allocated += size
                    self.peak_bytes_allocated = max(self.peak_bytes_allocated, self.bytes_allocated)
                    return addr
            self.alloc_failures += 1
            raise AllocationError(
                f"no free range of {size} bytes (largest free: "
                f"{max((s for _, s in self._free), default=0)})"
            )

    def free(self, address: int) -> None:
        """Release a previous allocation, coalescing neighbours."""
        with self._lock:
            size = self._allocated.pop(address, None)
            if size is None:
                raise AllocationError(f"free of unallocated address {address:#x}")
            self.frees += 1
            self.bytes_allocated -= size
            # The free list is sorted and fully coalesced, so the freed
            # range can only touch the two ranges around its slot.
            free = self._free
            index = bisect_left(free, (address, 0))
            if index < len(free) and address + size == free[index][0]:
                size += free[index][1]
                del free[index]
            if index and free[index - 1][0] + free[index - 1][1] == address:
                free[index - 1] = (free[index - 1][0], free[index - 1][1] + size)
            else:
                free.insert(index, (address, size))

    @property
    def bytes_free(self) -> int:
        """Currently free bytes."""
        with self._lock:
            return sum(size for _, size in self._free)

    @property
    def largest_free(self) -> int:
        """Largest single free range (fragmentation indicator)."""
        with self._lock:
            return max((size for _, size in self._free), default=0)


class DeviceMemoryManager:
    """One allocator per HBM block, addressable by block index."""

    def __init__(self, n_blocks: int, block_capacity: int):
        if n_blocks <= 0:
            raise AllocationError(f"n_blocks must be positive, got {n_blocks}")
        self.n_blocks = n_blocks
        self.block_capacity = block_capacity
        self._allocators = [
            MemoryBlockAllocator(base=0, capacity=block_capacity) for _ in range(n_blocks)
        ]

    def allocator(self, block: int) -> MemoryBlockAllocator:
        """The allocator managing HBM *block*."""
        if not 0 <= block < self.n_blocks:
            raise AllocationError(f"block {block} out of range 0..{self.n_blocks - 1}")
        return self._allocators[block]

    def alloc(self, block: int, n_bytes: int) -> int:
        """Allocate in a specific HBM block (the §IV-B requirement)."""
        return self.allocator(block).alloc(n_bytes)

    def free(self, block: int, address: int) -> None:
        """Free an allocation in a specific HBM block."""
        self.allocator(block).free(address)

"""Unit + concurrency tests for the device memory manager."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.host import DeviceMemoryManager, MemoryBlockAllocator
from repro.host.memory_manager import ALLOCATION_ALIGNMENT


class TestAllocator:
    def test_alloc_returns_aligned_addresses(self):
        alloc = MemoryBlockAllocator(0, 1 << 20)
        for _ in range(10):
            addr = alloc.alloc(100)
            assert addr % ALLOCATION_ALIGNMENT == 0

    def test_allocations_disjoint(self):
        alloc = MemoryBlockAllocator(0, 1 << 20)
        spans = []
        for _ in range(20):
            addr = alloc.alloc(5000)
            size = 8192  # 5000 rounded up
            for other_addr, other_size in spans:
                assert addr + size <= other_addr or other_addr + other_size <= addr
            spans.append((addr, size))

    def test_free_then_realloc_reuses_space(self):
        alloc = MemoryBlockAllocator(0, 8192)
        a = alloc.alloc(4096)
        b = alloc.alloc(4096)
        with pytest.raises(AllocationError):
            alloc.alloc(1)
        alloc.free(a)
        c = alloc.alloc(4096)
        assert c == a

    def test_coalescing_recovers_large_range(self):
        alloc = MemoryBlockAllocator(0, 3 * 4096)
        blocks = [alloc.alloc(4096) for _ in range(3)]
        for addr in blocks:
            alloc.free(addr)
        # Full capacity available again as one range.
        assert alloc.largest_free == 3 * 4096
        assert alloc.alloc(3 * 4096) == 0

    def test_double_free_rejected(self):
        alloc = MemoryBlockAllocator(0, 1 << 16)
        addr = alloc.alloc(4096)
        alloc.free(addr)
        with pytest.raises(AllocationError):
            alloc.free(addr)

    def test_exhaustion_raises(self):
        alloc = MemoryBlockAllocator(0, 8192)
        alloc.alloc(8192)
        with pytest.raises(AllocationError):
            alloc.alloc(1)

    def test_accounting(self):
        alloc = MemoryBlockAllocator(0, 1 << 16)
        a = alloc.alloc(4096)
        assert alloc.bytes_allocated == 4096
        assert alloc.bytes_free == (1 << 16) - 4096
        alloc.free(a)
        assert alloc.bytes_allocated == 0

    def test_invalid_requests_rejected(self):
        alloc = MemoryBlockAllocator(0, 1 << 16)
        with pytest.raises(AllocationError):
            alloc.alloc(0)
        with pytest.raises(AllocationError):
            alloc.free(12345)

    def test_thread_safety_under_contention(self):
        """Hammer one allocator from 8 real threads; every allocation
        must be disjoint and the books must balance (§IV-B requires a
        *thread-safe* manager)."""
        alloc = MemoryBlockAllocator(0, 8 << 20)
        errors = []
        seen = []
        lock = threading.Lock()

        def worker():
            try:
                held = []
                for _ in range(100):
                    addr = alloc.alloc(4096)
                    with lock:
                        seen.append(addr)
                    held.append(addr)
                    if len(held) > 4:
                        alloc.free(held.pop(0))
                for addr in held:
                    alloc.free(addr)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert alloc.bytes_allocated == 0
        assert alloc.bytes_free == 8 << 20

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 50_000), min_size=1, max_size=30),
        free_order=st.randoms(),
    )
    def test_property_alloc_free_restores_capacity(self, sizes, free_order):
        capacity = 16 << 20
        alloc = MemoryBlockAllocator(0, capacity)
        addrs = []
        for size in sizes:
            addrs.append(alloc.alloc(size))
        free_order.shuffle(addrs)
        for addr in addrs:
            alloc.free(addr)
        assert alloc.bytes_free == capacity
        assert alloc.largest_free == capacity

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(1, 40_000), st.integers(0, 1 << 16)),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_free_list_equals_sort_and_merge(self, ops):
        """Each free leaves the list a full sort-and-merge would give."""

        def sort_and_merge(ranges):
            merged = []
            for addr, size in sorted(ranges):
                if merged and merged[-1][0] + merged[-1][1] == addr:
                    merged[-1] = (merged[-1][0], merged[-1][1] + size)
                else:
                    merged.append((addr, size))
            return merged

        alloc = MemoryBlockAllocator(0, 1 << 20)
        live = {}
        for is_alloc, size, pick in ops:
            if is_alloc or not live:
                try:
                    address = alloc.alloc(size)
                except AllocationError:
                    continue
                live[address] = -(-size // ALLOCATION_ALIGNMENT) * ALLOCATION_ALIGNMENT
            else:
                address = sorted(live)[pick % len(live)]
                expected = sort_and_merge(alloc._free + [(address, live.pop(address))])
                alloc.free(address)
                assert alloc._free == expected
        assert alloc.bytes_free == (1 << 20) - sum(live.values())


class TestDeviceMemoryManager:
    def test_per_block_isolation(self):
        mgr = DeviceMemoryManager(n_blocks=4, block_capacity=8192)
        a0 = mgr.alloc(0, 8192)
        # Block 0 is full but block 1 is untouched.
        with pytest.raises(AllocationError):
            mgr.alloc(0, 1)
        a1 = mgr.alloc(1, 8192)
        assert a0 == a1 == 0  # same local address space per block

    def test_free_routed_to_block(self):
        mgr = DeviceMemoryManager(n_blocks=2, block_capacity=8192)
        addr = mgr.alloc(1, 4096)
        with pytest.raises(AllocationError):
            mgr.free(0, addr)  # wrong block
        mgr.free(1, addr)

    def test_invalid_block_rejected(self):
        mgr = DeviceMemoryManager(n_blocks=2, block_capacity=8192)
        with pytest.raises(AllocationError):
            mgr.alloc(2, 64)
        with pytest.raises(AllocationError):
            mgr.alloc(-1, 64)

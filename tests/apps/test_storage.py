"""Page storage and buffer pool."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.database.storage import (
    PAGE_BYTES,
    BufferPool,
    HeapFile,
    PageId,
)
from repro.errors import DatabaseError


class TestHeapFile:
    def test_append_opens_pages_as_needed(self):
        heap = HeapFile("r", tuple_bytes=208)
        for i in range(40):
            heap.append((i,))
        assert heap.page_count == 2
        assert heap.tuple_count == 40
        assert len(heap.page(0).tuples) == 39
        assert len(heap.page(1).tuples) == 1

    def test_scan_order(self):
        heap = HeapFile("r", tuple_bytes=2048)
        rows = [(i,) for i in range(10)]
        for row in rows:
            heap.append(row)
        assert [row for _pid, row in heap.scan()] == rows

    def test_scan_reports_page_ids(self):
        heap = HeapFile("r", tuple_bytes=4096)  # 2 tuples per page
        for i in range(5):
            heap.append((i,))
        pids = [pid for pid, _row in heap.scan()]
        assert pids[0] == pids[1] == PageId("r", 0)
        assert pids[2] == pids[3] == PageId("r", 1)
        assert pids[4] == PageId("r", 2)

    def test_oversized_tuple_rejected(self):
        with pytest.raises(DatabaseError):
            HeapFile("r", tuple_bytes=PAGE_BYTES + 1)

    def test_page_out_of_range(self):
        heap = HeapFile("r", tuple_bytes=208)
        with pytest.raises(DatabaseError):
            heap.page(0)


class TestBufferPool:
    def test_capacity_in_pages(self):
        pool = BufferPool(capacity_mb=1.0)
        assert pool.capacity_pages == 1024 * 1024 // PAGE_BYTES == 128

    def test_miss_then_hit(self):
        pool = BufferPool(capacity_mb=1.0)
        page = PageId("r", 0)
        assert not pool.access(page)
        assert pool.access(page)
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(capacity_mb=8 * PAGE_BYTES / (1024 * 1024))
        pages = [PageId("r", i) for i in range(8)]
        pool.access_many(pages)
        pool.access(pages[0])           # page 0 now most recent
        pool.access(PageId("r", 99))    # evicts page 1, not page 0
        assert pool.access(pages[0])     # a hit
        assert not pool.access(pages[1])

    def test_access_many_counts_misses(self):
        pool = BufferPool(capacity_mb=1.0)
        pages = [PageId("r", i) for i in range(10)]
        assert pool.access_many(pages) == 10
        assert pool.access_many(pages) == 0

    def test_shrink_evicts(self):
        pool = BufferPool(capacity_mb=1.0)
        pool.access_many([PageId("r", i) for i in range(100)])
        evicted = pool.resize(
            capacity_mb=10 * PAGE_BYTES / (1024 * 1024))
        assert evicted == 90
        # The ten most recently used stayed resident.
        assert pool.access_many([PageId("r", i) for i in range(90, 100)]) \
            == 0

    def test_grow_keeps_pages(self):
        pool = BufferPool(capacity_mb=1.0)
        pages = [PageId("r", i) for i in range(50)]
        pool.access_many(pages)
        assert pool.resize(capacity_mb=2.0) == 0
        assert pool.access_many(pages) == 0

    def test_hits_and_misses_count(self):
        pool = BufferPool(capacity_mb=1.0)
        page = PageId("r", 0)
        pool.access(page)
        pool.access(page)
        pool.access(page)
        assert (pool.hits, pool.misses) == (2, 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(DatabaseError):
            BufferPool(capacity_mb=0)

    def test_clear(self):
        pool = BufferPool(capacity_mb=1.0)
        pool.access(PageId("r", 0))
        pool.clear()
        assert not pool.access(PageId("r", 0))


@given(st.lists(st.integers(0, 30), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=16))
def test_lru_never_exceeds_capacity(accesses, capacity_pages):
    pool = BufferPool(capacity_mb=capacity_pages * PAGE_BYTES
                      / (1024 * 1024))
    for page_number in accesses:
        pool.access(PageId("r", page_number))
        # Resizing to the same capacity evicts exactly the overflow.
        assert pool.resize(capacity_pages * PAGE_BYTES
                           / (1024 * 1024)) == 0
    assert pool.hits + pool.misses == len(accesses)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
def test_working_set_within_capacity_never_remisses(accesses):
    """Once every touched page fits, each page misses exactly once."""
    pool = BufferPool(capacity_mb=1.0)  # 128 pages >> 6 distinct
    for page_number in accesses:
        pool.access(PageId("r", page_number))
    assert pool.misses == len(set(accesses))

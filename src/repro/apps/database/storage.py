"""Page-based storage for the mini relational engine.

The paper's database was Tornadito, "a relational database engine built on
top of the SHORE storage manager".  This module is the SHORE substitute:
heap files of fixed-size pages and an LRU buffer pool with hit/miss
accounting.  Tuples are real Python objects — queries genuinely execute —
while the page-granular accounting is what drives simulated I/O and
data-shipping costs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import DatabaseError

__all__ = ["PAGE_BYTES", "Page", "HeapFile", "BufferPool", "PageId"]

#: Fixed page size, SHORE-like.
PAGE_BYTES = 8192


@dataclass(frozen=True)
class PageId:
    """Globally unique page address: (file name, page number)."""

    file_name: str
    page_number: int

    def __str__(self) -> str:
        return f"{self.file_name}#{self.page_number}"


@dataclass
class Page:
    """One fixed-size page holding whole tuples (no spanning)."""

    page_id: PageId
    tuple_bytes: int
    tuples: list[tuple] = field(default_factory=list)

    @property
    def capacity(self) -> int:
        return PAGE_BYTES // self.tuple_bytes

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.tuples)

    def insert(self, row: tuple) -> None:
        if self.free_slots <= 0:
            raise DatabaseError(f"page {self.page_id} is full")
        self.tuples.append(row)


class HeapFile:
    """An append-only sequence of pages storing one relation."""

    def __init__(self, name: str, tuple_bytes: int):
        if tuple_bytes <= 0 or tuple_bytes > PAGE_BYTES:
            raise DatabaseError(
                f"tuple size {tuple_bytes} does not fit a {PAGE_BYTES}-byte "
                f"page")
        self.name = name
        self.tuple_bytes = tuple_bytes
        self._pages: list[Page] = []

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def tuple_count(self) -> int:
        return sum(len(page.tuples) for page in self._pages)

    def append(self, row: tuple) -> PageId:
        """Insert a tuple, opening a new page when the last one is full."""
        if not self._pages or self._pages[-1].free_slots == 0:
            page_id = PageId(self.name, len(self._pages))
            self._pages.append(Page(page_id=page_id,
                                    tuple_bytes=self.tuple_bytes))
        page = self._pages[-1]
        page.insert(row)
        return page.page_id

    def page(self, page_number: int) -> Page:
        if not 0 <= page_number < len(self._pages):
            raise DatabaseError(
                f"{self.name}: no page {page_number} "
                f"(file has {len(self._pages)})")
        return self._pages[page_number]

    def page_ids(self) -> list[PageId]:
        return [page.page_id for page in self._pages]

    def scan(self) -> Iterator[tuple[PageId, tuple]]:
        """Yield (page id, tuple) over the whole file in storage order."""
        for page in self._pages:
            for row in page.tuples:
                yield page.page_id, row


class BufferPool:
    """An LRU page cache with hit/miss statistics.

    Capacity is expressed in megabytes to line up with the RSL ``memory``
    tags: a client granted 32 MB caches ``32 MB / 8 KB = 4096`` pages.
    """

    def __init__(self, capacity_mb: float, name: str = ""):
        if capacity_mb <= 0:
            raise DatabaseError("buffer pool capacity must be positive")
        self.name = name
        self._capacity_pages = max(1, int(capacity_mb * 1024 * 1024
                                          // PAGE_BYTES))
        self._resident: OrderedDict[PageId, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity_pages(self) -> int:
        return self._capacity_pages

    def resize(self, capacity_mb: float) -> int:
        """Change capacity (Harmony granting more/less memory).

        Returns the number of pages evicted by a shrink.
        """
        if capacity_mb <= 0:
            raise DatabaseError("buffer pool capacity must be positive")
        self._capacity_pages = max(1, int(capacity_mb * 1024 * 1024
                                          // PAGE_BYTES))
        evicted = 0
        while len(self._resident) > self._capacity_pages:
            self._resident.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def access(self, page_id: PageId) -> bool:
        """Touch a page; returns True on hit, False on miss (page faulted in)."""
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._resident[page_id] = None
        if len(self._resident) > self._capacity_pages:
            self._resident.popitem(last=False)
            self.evictions += 1
        return False

    def access_many(self, page_ids: Sequence[PageId]) -> int:
        """Touch pages in order; returns the number of misses."""
        misses = 0
        for page_id in page_ids:
            if not self.access(page_id):
                misses += 1
        return misses

    def clear(self) -> None:
        self._resident.clear()

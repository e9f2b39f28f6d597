"""Query execution with cost accounting.

The engine really executes queries — index selections, a hash join over
actual tuples — and measures, per execution, how much reference-machine CPU
and page I/O the work costs.  Those costs are what the harmonized client and
server applications turn into simulated time on their nodes and links.

Two execution paths match the paper's two tuning options:

* **query shipping** (:meth:`DatabaseEngine.execute`, run against the
  *server's* buffer pool): the server does everything; the client receives
  only the result tuples.
* **data shipping** (:meth:`DatabaseEngine.execute` against the
  *client's* buffer pool): the client faults missing pages across the
  network and executes locally; the server only serves pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.database.query import JoinQuery
from repro.apps.database.relation import WisconsinRelation
from repro.apps.database.storage import PAGE_BYTES, BufferPool

__all__ = ["CostParameters", "ExecutionProfile", "DatabaseEngine"]


@dataclass(frozen=True)
class CostParameters:
    """Per-operation costs in reference-machine seconds and bytes.

    Defaults are calibrated so a warm-cache Wisconsin join (two 10%
    selections joined on a key) costs about ``3e-4 * N`` reference seconds
    for N-tuple relations: ~3 s at the default experiment size (10k tuples),
    ~30 s at the paper's full 100k — large against the fixed ~0.4 s of
    client-side overhead, which is what makes server contention the
    dominant effect and produces the Figure 7 shape (response roughly
    doubling per extra query-shipping client).
    """

    select_tuple_seconds: float = 1.0e-3
    join_tuple_seconds: float = 5.0e-4
    page_io_seconds: float = 1.0e-3      # buffer-pool miss (local disk)
    page_service_seconds: float = 5.0e-5  # server CPU to ship one page
    result_tuple_bytes: int = 416        # two concatenated 208-byte tuples
    query_request_bytes: int = 512


@dataclass
class ExecutionProfile:
    """Everything one query execution cost, plus its (real) result size."""

    query: JoinQuery
    selected_a: int = 0
    selected_b: int = 0
    result_tuples: int = 0
    pages_accessed: int = 0
    page_misses: int = 0
    cpu_seconds: float = 0.0
    io_seconds: float = 0.0

    @property
    def compute_seconds(self) -> float:
        """Total reference seconds at the executing site (CPU + page I/O)."""
        return self.cpu_seconds + self.io_seconds

    def result_bytes(self, params: CostParameters) -> int:
        return self.result_tuples * params.result_tuple_bytes


class DatabaseEngine:
    """Executes join queries over a pair of Wisconsin relations."""

    def __init__(self, relation_a: WisconsinRelation,
                 relation_b: WisconsinRelation,
                 params: CostParameters | None = None):
        self.relation_a = relation_a
        self.relation_b = relation_b
        self.params = params or CostParameters()

    # -- planning --------------------------------------------------------------

    def working_set_pages(self) -> int:
        """Pages of both relations — the data-shipping working set."""
        return self.relation_a.heap.page_count \
            + self.relation_b.heap.page_count

    def working_set_mb(self) -> float:
        return self.working_set_pages() * PAGE_BYTES / (1024 * 1024)

    # -- execution ---------------------------------------------------------------

    def execute(self, query: JoinQuery, pool: BufferPool,
                ) -> ExecutionProfile:
        """Run the query against ``pool`` (the executing site's cache).

        The selection uses the index on ``query.select_field``; every
        distinct page holding a selected tuple is touched in the pool
        (misses are charged ``page_io_seconds`` each).  The join is a real
        hash join on ``query.join_field``.
        """
        params = self.params
        profile = ExecutionProfile(query=query)

        index_a = self.relation_a.index_on(query.select_field)
        index_b = self.relation_b.index_on(query.select_field)
        entries_a = index_a.lookup(query.select_value_a)
        entries_b = index_b.lookup(query.select_value_b)
        profile.selected_a = len(entries_a)
        profile.selected_b = len(entries_b)

        pages = index_a.distinct_pages(entries_a) \
            + index_b.distinct_pages(entries_b)
        profile.pages_accessed = len(pages)
        profile.page_misses = pool.access_many(pages)

        join_key_a = WisconsinRelation.field_index(query.join_field)
        join_key_b = WisconsinRelation.field_index(query.join_field)
        build: dict[float, list[tuple]] = {}
        for _key, _page, row in entries_a:
            build.setdefault(row[join_key_a], []).append(row)
        result_count = 0
        for _key, _page, row in entries_b:
            result_count += len(build.get(row[join_key_b], ()))
        profile.result_tuples = result_count

        profile.cpu_seconds = (
            (profile.selected_a + profile.selected_b)
            * params.select_tuple_seconds
            + (profile.selected_a + profile.selected_b)
            * params.join_tuple_seconds)
        profile.io_seconds = profile.page_misses * params.page_io_seconds
        return profile

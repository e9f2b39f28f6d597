"""Query execution: correctness of the join and cost accounting."""

import pytest

from repro.apps.database.executor import CostParameters, DatabaseEngine
from repro.apps.database.query import JoinQuery, WisconsinWorkload
from repro.apps.database.relation import WisconsinRelation, make_wisconsin_pair
from repro.apps.database.storage import BufferPool
from repro.errors import DatabaseError


@pytest.fixture(scope="module")
def engine():
    a, b = make_wisconsin_pair(tuple_count=2000, seed=9)
    return DatabaseEngine(a, b, CostParameters())


def big_pool():
    return BufferPool(capacity_mb=64.0)


def draw(workload, count):
    return [workload.next_query() for _ in range(count)]


def nested_loop_result(engine, query):
    """The join's result size, recomputed by a nested loop over the
    relations' heaps."""
    select = WisconsinRelation.field_index(query.select_field)
    join = WisconsinRelation.field_index(query.join_field)
    keys_a = [row[join] for _pid, row in engine.relation_a.heap.scan()
              if row[select] == query.select_value_a]
    return sum(1 for _pid, row in engine.relation_b.heap.scan()
               if row[select] == query.select_value_b
               for key in keys_a if key == row[join])


class TestJoinCorrectness:
    def test_result_verified_against_nested_loop(self, engine):
        for values in ((0, 0), (3, 7), (9, 9)):
            query = JoinQuery(select_value_a=values[0],
                              select_value_b=values[1])
            profile = engine.execute(query, big_pool())
            assert profile.result_tuples == nested_loop_result(engine, query)

    def test_selectivity_counts(self, engine):
        profile = engine.execute(JoinQuery(select_value_a=2,
                                           select_value_b=5), big_pool())
        assert profile.selected_a == 200
        assert profile.selected_b == 200

    def test_same_slice_join_size(self, engine):
        """Joining the same tenPercent slice of both relations on unique1
        matches every key in the slice present in both relations."""
        profile = engine.execute(JoinQuery(select_value_a=4,
                                           select_value_b=4), big_pool())
        # unique1 % 10 == 4 in both relations: identical key sets -> 200.
        assert profile.result_tuples == 200

    def test_disjoint_slices_join_empty(self, engine):
        profile = engine.execute(JoinQuery(select_value_a=1,
                                           select_value_b=2), big_pool())
        # Keys with unique1%10==1 in A cannot equal keys with %10==2 in B.
        assert profile.result_tuples == 0

    def test_selection_and_join_on_same_field_rejected(self):
        with pytest.raises(DatabaseError):
            JoinQuery(select_field="unique1", join_field="unique1")


class TestCostAccounting:
    def test_cpu_proportional_to_selected(self, engine):
        params = engine.params
        profile = engine.execute(JoinQuery(), big_pool())
        expected = (profile.selected_a + profile.selected_b) * \
            (params.select_tuple_seconds + params.join_tuple_seconds)
        assert profile.cpu_seconds == pytest.approx(expected)

    def test_cold_pool_pays_page_io(self, engine):
        pool = big_pool()
        first = engine.execute(JoinQuery(select_value_a=0,
                                         select_value_b=0), pool)
        assert first.page_misses == first.pages_accessed > 0
        assert first.io_seconds == pytest.approx(
            first.page_misses * engine.params.page_io_seconds)

    def test_warm_pool_has_no_io(self, engine):
        pool = big_pool()
        query = JoinQuery(select_value_a=0, select_value_b=0)
        engine.execute(query, pool)
        second = engine.execute(query, pool)
        assert second.page_misses == 0
        assert second.io_seconds == 0.0

    def test_tiny_pool_thrashes(self, engine):
        pool = BufferPool(capacity_mb=0.1)  # ~12 pages
        query = JoinQuery(select_value_a=0, select_value_b=0)
        engine.execute(query, pool)
        second = engine.execute(query, pool)
        assert second.page_misses > 0

    def test_result_bytes(self, engine):
        profile = engine.execute(JoinQuery(select_value_a=4,
                                           select_value_b=4), big_pool())
        assert profile.result_bytes(engine.params) == \
            200 * engine.params.result_tuple_bytes

    def test_compute_seconds_is_cpu_plus_io(self, engine):
        profile = engine.execute(JoinQuery(), big_pool())
        assert profile.compute_seconds == pytest.approx(
            profile.cpu_seconds + profile.io_seconds)


class TestDataShippingSupport:
    def test_working_set(self, engine):
        assert engine.working_set_pages() == \
            engine.relation_a.heap.page_count + \
            engine.relation_b.heap.page_count
        assert engine.working_set_mb() == pytest.approx(
            engine.working_set_pages() * 8192 / 1048576)


class TestWorkload:
    def test_deterministic_stream(self):
        first = draw(WisconsinWorkload(seed=4), 20)
        second = draw(WisconsinWorkload(seed=4), 20)
        assert first == second

    def test_perturbation_varies_queries(self):
        queries = draw(WisconsinWorkload(seed=4), 50)
        assert len({(q.select_value_a, q.select_value_b)
                    for q in queries}) > 5

    def test_values_within_domain(self):
        for query in draw(WisconsinWorkload(seed=1, distinct_values=10),
                             100):
            assert 0 <= query.select_value_a < 10
            assert 0 <= query.select_value_b < 10

    def test_counter(self):
        workload = WisconsinWorkload(seed=0)
        draw(workload, 7)
        assert workload.queries_generated == 7

"""Fair-share server, slot resource, and store semantics.

The fair-share (processor-sharing) server is the contention mechanism
behind every experiment, so its arithmetic is checked against hand-computed
PS trajectories and, property-based, against work conservation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.kernel import Kernel
from repro.cluster.resources import FairShareServer, Store
from repro.errors import SimulationError


def run_jobs(kernel, server, arrivals):
    """Submit (arrival_time, demand) jobs; return (finish, sojourn) list."""
    results = {}

    def submit(index, arrival, demand):
        yield kernel.timeout(arrival)
        sojourn = yield server.submit(demand)
        results[index] = (kernel.now, sojourn)

    for index, (arrival, demand) in enumerate(arrivals):
        kernel.spawn(submit(index, arrival, demand))
    kernel.run()
    return [results[i] for i in range(len(arrivals))]


class TestProcessorSharing:
    def test_single_job_runs_at_capacity(self, kernel):
        server = FairShareServer(kernel, capacity=2.0)
        [(finish, sojourn)] = run_jobs(kernel, server, [(0, 10)])
        assert finish == pytest.approx(5.0)
        assert sojourn == pytest.approx(5.0)

    def test_two_equal_jobs_double(self, kernel):
        server = FairShareServer(kernel, capacity=1.0)
        results = run_jobs(kernel, server, [(0, 10), (0, 10)])
        assert results[0][0] == pytest.approx(20.0)
        assert results[1][0] == pytest.approx(20.0)

    def test_staggered_arrival_trajectory(self, kernel):
        # Job A (10 units) starts at 0; job B (10 units) at 5.
        # A: 5 alone + shares until A has 10 total: remaining 5 at rate 1/2
        #    -> finishes at 15.  B: has 5 done by then, runs alone -> 20.
        server = FairShareServer(kernel, capacity=1.0)
        results = run_jobs(kernel, server, [(0, 10), (5, 10)])
        assert results[0][0] == pytest.approx(15.0)
        assert results[1][0] == pytest.approx(20.0)
        assert results[1][1] == pytest.approx(15.0)  # sojourn of B

    def test_short_job_among_long(self, kernel):
        # A tiny job among one big job sees rate 1/2.
        server = FairShareServer(kernel, capacity=1.0)
        results = run_jobs(kernel, server, [(0, 100), (0, 1)])
        assert results[1][0] == pytest.approx(2.0)

    def test_zero_demand_completes_instantly(self, kernel):
        server = FairShareServer(kernel, capacity=1.0)
        [(finish, sojourn)] = run_jobs(kernel, server, [(3, 0)])
        assert finish == pytest.approx(3.0)
        assert sojourn == 0.0

    def test_negative_demand_rejected(self, kernel):
        server = FairShareServer(kernel, capacity=1.0)
        with pytest.raises(SimulationError):
            server.submit(-1)

    def test_capacity_must_be_positive(self, kernel):
        with pytest.raises(SimulationError):
            FairShareServer(kernel, capacity=0)

    def test_statistics_utilization(self, kernel):
        server = FairShareServer(kernel, capacity=1.0)
        run_jobs(kernel, server, [(0, 10), (0, 10)])

        def probe():
            yield kernel.timeout(0)
        kernel.spawn(probe())
        kernel.run()
        assert server.utilization() == pytest.approx(1.0)

    def test_every_job_completes(self, kernel):
        server = FairShareServer(kernel, capacity=4.0)
        # run_jobs raises KeyError for a job whose completion never fired.
        finished = run_jobs(kernel, server, [(0, 1), (0, 2), (1, 3)])
        assert len(finished) == 3
        assert server.active_jobs == 0

    def test_staggered_churn_completes_every_job(self, kernel):
        server = FairShareServer(kernel, capacity=4.0)
        finished = run_jobs(
            kernel, server,
            [(index * 0.01, 1.0 + index % 5) for index in range(500)])
        assert len(finished) == 500
        assert server.active_jobs == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 50).map(float),
              st.integers(1, 40).map(float)),
    min_size=1, max_size=8))
def test_work_conservation(jobs):
    """The server finishes total work no faster than capacity allows,
    and exactly at sum(work)/capacity when it is never idle from t=0."""
    kernel = Kernel()
    server = FairShareServer(kernel, capacity=1.0)
    results = run_jobs(kernel, server, jobs)
    total_work = sum(demand for _arrival, demand in jobs)
    last_finish = max(finish for finish, _sojourn in results)
    assert last_finish >= total_work - 1e-6 or \
        any(arrival > 0 for arrival, _ in jobs)
    # Work conservation upper bound: cannot finish before the busy-period
    # lower bound max(arrival) and never later than serialized execution.
    assert last_finish <= max(a for a, _ in jobs) + total_work + 1e-6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 30).map(float), min_size=2, max_size=6))
def test_simultaneous_ps_sojourn_formula(demands):
    """For simultaneous arrivals, sojourn of job i = sum_j min(s_j, s_i).

    This is the closed form the default prediction model relies on; the
    simulator must agree with it exactly.
    """
    kernel = Kernel()
    server = FairShareServer(kernel, capacity=1.0)
    results = run_jobs(kernel, server, [(0, d) for d in demands])
    for i, (finish, sojourn) in enumerate(results):
        expected = sum(min(d, demands[i]) for d in demands)
        assert sojourn == pytest.approx(expected, rel=1e-6)


class TestStore:
    def test_put_then_get(self, kernel):
        store = Store(kernel)
        store.put("item")
        event = store.get()
        kernel.run()
        assert event.value == "item"

    def test_get_blocks_until_put(self, kernel):
        store = Store(kernel)
        received = []

        def consumer():
            item = yield store.get()
            received.append((kernel.now, item))

        def producer():
            yield kernel.timeout(4)
            store.put("late")

        kernel.spawn(consumer())
        kernel.spawn(producer())
        kernel.run()
        assert received == [(4.0, "late")]

    def test_fifo_item_order(self, kernel):
        store = Store(kernel)
        for item in (1, 2, 3):
            store.put(item)
        values = []

        def consumer():
            for _ in range(3):
                values.append((yield store.get()))
        kernel.spawn(consumer())
        kernel.run()
        assert values == [1, 2, 3]

    def test_len_counts_queued_items(self, kernel):
        store = Store(kernel)
        store.put(1)
        store.put(2)
        assert len(store) == 2

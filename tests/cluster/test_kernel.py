"""Discrete-event kernel semantics."""

import pytest

from repro.cluster.kernel import AllOf, AnyOf, Interrupted, Kernel
from repro.errors import SimulationError


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_timeout_advances_clock(self, kernel):
        def proc():
            yield kernel.timeout(5.0)
        done = kernel.spawn(proc())
        kernel.run(done)
        assert kernel.now == 5.0

    def test_timeout_value_passes_through(self, kernel):
        def proc():
            value = yield kernel.timeout(1.0, "payload")
            return value
        assert kernel.run(kernel.spawn(proc())) == "payload"

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.timeout(-1.0)

    def test_run_until_time_stops_exactly(self, kernel):
        ticks = []

        def proc():
            while True:
                yield kernel.timeout(10.0)
                ticks.append(kernel.now)
        kernel.spawn(proc())
        kernel.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]
        assert kernel.now == 35.0

    def test_events_fire_in_time_order(self, kernel):
        order = []

        def proc(delay, tag):
            yield kernel.timeout(delay)
            order.append(tag)
        kernel.spawn(proc(3, "c"))
        kernel.spawn(proc(1, "a"))
        kernel.spawn(proc(2, "b"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, kernel):
        order = []

        def proc(tag):
            yield kernel.timeout(1.0)
            order.append(tag)
        for tag in "abc":
            kernel.spawn(proc(tag))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_many_interleaved_timeouts_all_fire_in_order(self, kernel):
        done = []

        def worker(index):
            yield kernel.timeout(index % 13)
            done.append(index)
        for index in range(1000):
            kernel.spawn(worker(index))
        kernel.run()
        assert done == sorted(range(1000), key=lambda index: index % 13)


class TestProcesses:
    def test_return_value(self, kernel):
        def proc():
            yield kernel.timeout(1)
            return 42
        assert kernel.run(kernel.spawn(proc())) == 42

    def test_process_waits_on_process(self, kernel):
        def child():
            yield kernel.timeout(7)
            return "child-result"

        def parent():
            result = yield kernel.spawn(child())
            return (kernel.now, result)
        assert kernel.run(kernel.spawn(parent())) == (7.0, "child-result")

    def test_exception_propagates_to_waiter(self, kernel):
        def failing():
            yield kernel.timeout(1)
            raise ValueError("inner boom")

        def waiter():
            try:
                yield kernel.spawn(failing())
            except ValueError as exc:
                return f"caught {exc}"
        assert kernel.run(kernel.spawn(waiter())) == "caught inner boom"

    def test_unhandled_failure_surfaces_from_run(self, kernel):
        def failing():
            yield kernel.timeout(1)
            raise ValueError("boom")
        done = kernel.spawn(failing())
        with pytest.raises(ValueError, match="boom"):
            kernel.run(done)

    def test_yield_already_processed_event_continues(self, kernel):
        event = kernel.event()
        event.succeed("early")
        kernel.run()  # process the trigger

        def proc():
            value = yield event
            return value
        assert kernel.run(kernel.spawn(proc())) == "early"

    def test_waiting_on_event_that_never_fires_deadlocks(self, kernel):
        done = kernel.spawn(iter([kernel.event()]).__iter__())

        def proc():
            yield kernel.event()
        target = kernel.spawn(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            kernel.run(target)


class TestInterrupts:
    def test_interrupt_wakes_waiting_process(self, kernel):
        log = []

        def sleeper():
            try:
                yield kernel.timeout(100)
                log.append("finished")
            except Interrupted as exc:
                log.append((f"interrupted:{exc.cause}", kernel.now))

        process = kernel.spawn(sleeper())

        def interrupter():
            yield kernel.timeout(5)
            process.interrupt("stop")
        kernel.spawn(interrupter())
        kernel.run()
        # The interrupt is delivered at t=5; the abandoned 100 s timeout
        # still drains from the queue afterwards (nobody waits on it).
        assert log == [("interrupted:stop", 5.0)]

    def test_unhandled_interrupt_fails_process(self, kernel):
        def sleeper():
            yield kernel.timeout(100)
        process = kernel.spawn(sleeper())

        def interrupter():
            yield kernel.timeout(1)
            process.interrupt()
        kernel.spawn(interrupter())
        kernel.run(until=10)
        assert process.triggered
        assert isinstance(process.exception, Interrupted)

    def test_interrupt_dead_process_is_noop(self, kernel):
        def quick():
            yield kernel.timeout(1)
        process = kernel.spawn(quick())
        kernel.run()
        process.interrupt()  # must not raise


class TestCombinators:
    def test_all_of_waits_for_every_event(self, kernel):
        def proc():
            values = yield kernel.all_of([
                kernel.timeout(3, "a"), kernel.timeout(1, "b")])
            return (kernel.now, values)
        assert kernel.run(kernel.spawn(proc())) == (3.0, ["a", "b"])

    def test_any_of_returns_first(self, kernel):
        def proc():
            event, value = yield kernel.any_of([
                kernel.timeout(3, "slow"), kernel.timeout(1, "fast")])
            return (kernel.now, value)
        assert kernel.run(kernel.spawn(proc())) == (1.0, "fast")

    def test_all_of_empty_list_fires_immediately(self, kernel):
        def proc():
            values = yield kernel.all_of([])
            return values
        assert kernel.run(kernel.spawn(proc())) == []

    def test_all_of_processes(self, kernel):
        def worker(delay):
            yield kernel.timeout(delay)
            return delay

        def proc():
            results = yield kernel.all_of(
                [kernel.spawn(worker(d)) for d in (5, 2, 8)])
            return results
        assert kernel.run(kernel.spawn(proc())) == [5, 2, 8]


class TestEventSafety:
    def test_double_trigger_rejected(self, kernel):
        event = kernel.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_value_before_trigger_rejected(self, kernel):
        with pytest.raises(SimulationError):
            _ = kernel.event().value

    def test_step_on_empty_queue_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.step()


class TestCombinatorEdgeCases:
    def test_all_of_propagates_child_failure(self, kernel):
        def failing():
            yield kernel.timeout(1)
            raise ValueError("child boom")

        def waiter():
            try:
                yield kernel.all_of([kernel.spawn(failing()),
                                     kernel.timeout(5)])
            except ValueError as exc:
                return f"caught {exc}"
        assert kernel.run(kernel.spawn(waiter())) == "caught child boom"

    def test_any_of_with_already_processed_event(self, kernel):
        event = kernel.event()
        event.succeed("done-early")
        kernel.run()

        def proc():
            _event, value = yield kernel.any_of(
                [event, kernel.timeout(100)])
            return (kernel.now, value)
        assert kernel.run(kernel.spawn(proc())) == (0.0, "done-early")

    def test_interrupt_while_waiting_on_all_of(self, kernel):
        log = []

        def sleeper():
            try:
                yield kernel.all_of([kernel.timeout(50),
                                     kernel.timeout(80)])
                log.append("finished")
            except Interrupted:
                log.append(("interrupted", kernel.now))

        process = kernel.spawn(sleeper())

        def interrupter():
            yield kernel.timeout(10)
            process.interrupt()
        kernel.spawn(interrupter())
        kernel.run()
        assert log == [("interrupted", 10.0)]

    def test_nested_conditions(self, kernel):
        def proc():
            inner = kernel.all_of([kernel.timeout(2, "a"),
                                   kernel.timeout(4, "b")])
            _event, value = yield kernel.any_of(
                [inner, kernel.timeout(10, "slow")])
            return (kernel.now, value)
        now, value = kernel.run(kernel.spawn(proc()))
        assert now == 4.0
        assert value == ["a", "b"]

    def test_any_of_ties_resolve_to_first_listed(self, kernel):
        def proc():
            _event, value = yield kernel.any_of(
                [kernel.timeout(3, "first"), kernel.timeout(3, "second")])
            return value
        assert kernel.run(kernel.spawn(proc())) == "first"

    def test_process_failure_value_readable_after_run(self, kernel):
        def failing():
            yield kernel.timeout(1)
            raise RuntimeError("kept")
        process = kernel.spawn(failing())
        kernel.run(until=5)
        assert isinstance(process.exception, RuntimeError)
        with pytest.raises(RuntimeError):
            _ = process.value

"""The coalescing reevaluation scheduler: debounce, bound, generations."""

import threading

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, CoalescingScheduler
from repro.controller.scheduler import MAX_BATCH_REASONS
from repro.persistence import DurabilityJournal


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def two_option_rsl(index):
    return f"""
harmonyBundle App{index} size {{
    {{small {{node n {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
            {{communication 4}}}}}}
"""


@pytest.fixture
def controller():
    cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                memory_mb=256.0)
    return AdaptationController(cluster)


@pytest.fixture
def sched(controller):
    clock = FakeClock()
    scheduler = CoalescingScheduler(controller, coalesce_window=0.05,
                                    max_delay=0.5, clock=clock)
    return controller, scheduler, clock


class TestCoalescing:
    def test_requests_within_window_merge_into_one_batch(self, sched):
        controller, scheduler, clock = sched
        for i in range(10):
            scheduler.request(f"trigger:{i}")
            clock.advance(0.01)  # under the 0.05 quiescence window
        assert not scheduler.run_pending()  # window not yet quiet
        clock.advance(0.05)
        assert scheduler.run_pending()
        assert scheduler.batches_run == 1
        assert scheduler.requests_coalesced == 10
        assert not scheduler.run_pending(force=True)  # nothing left pending

    def test_quiet_window_after_single_request(self, sched):
        _controller, scheduler, clock = sched
        scheduler.request("only")
        clock.advance(0.049)
        assert not scheduler.run_pending()
        clock.advance(0.002)
        assert scheduler.run_pending()

    def test_max_delay_bounds_a_chatty_burst(self, sched):
        """Continuous requests cannot starve the batch past max_delay."""
        _controller, scheduler, clock = sched
        scheduler.request("first")
        ran = False
        # A request every 0.04s keeps the 0.05s window from ever going
        # quiet; the 0.5s staleness bound must fire anyway.
        while clock.now < 1.0 and not ran:
            clock.advance(0.04)
            scheduler.request("again")
            ran = scheduler.run_pending()
        assert ran
        assert clock.now <= 0.5 + 0.05

    def test_flush_forces_an_undue_batch(self, sched):
        _controller, scheduler, clock = sched
        scheduler.request("x")
        assert scheduler.run_pending(force=True)
        assert scheduler.batches_run == 1
        assert not scheduler.run_pending(force=True)  # nothing pending

    def test_due_at_is_min_of_window_and_staleness_bound(self, sched):
        _controller, scheduler, clock = sched
        assert not scheduler.run_pending()  # nothing pending is never due
        scheduler.request("a")
        clock.advance(0.48)
        scheduler.request("b")
        # last+window = 0.53 but first+max_delay = 0.5 wins.
        clock.advance(0.019)
        assert not scheduler.run_pending()
        clock.advance(0.002)
        assert scheduler.run_pending()


class TestGenerations:
    def test_request_returns_the_covering_generation(self, sched):
        _controller, scheduler, clock = sched
        assert scheduler.request("a") == 1
        assert scheduler.request("b") == 1  # same batch
        clock.advance(1.0)
        scheduler.run_pending()
        assert scheduler.generation == 1
        assert scheduler.request("c") == 2

    def test_wait_for_generation_observes_completed_batches(self, sched):
        _controller, scheduler, clock = sched
        covering = scheduler.request("a")
        assert not scheduler.wait_for_generation(covering, timeout=0.0)
        scheduler.run_pending(force=True)
        assert scheduler.wait_for_generation(covering, timeout=0.0)

    def test_wait_deadline_runs_on_the_injected_clock(self, controller):
        """Regression: the wait deadline read ``time.monotonic()``
        directly instead of ``self.clock``, so a simulated clock could
        never drive the timeout — a test asking for a 60 s timeout
        really slept 60 s."""
        import time

        class SteppingClock(FakeClock):
            def __call__(self):
                now = self.now
                self.now += 5.0  # every read advances simulated time
                return now

        scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                        max_delay=0.0,
                                        clock=SteppingClock())
        covering = scheduler.request("never-run")
        started = time.monotonic()
        assert not scheduler.wait_for_generation(covering, timeout=60.0)
        # ~13 clock reads at 5 s/read burn the simulated deadline in
        # well under a real second.
        assert time.monotonic() - started < 5.0

    def test_wait_with_frozen_clock_observes_cross_thread_flush(
            self, sched):
        """A frozen injected clock cannot wake a sleeping waiter, so
        the wait slices real time and re-checks — a flush from another
        thread must still be observed."""
        import time

        _controller, scheduler, clock = sched
        covering = scheduler.request("a")

        def flush_later():
            time.sleep(0.05)
            scheduler.run_pending(force=True)

        flusher = threading.Thread(target=flush_later)
        flusher.start()
        try:
            assert scheduler.wait_for_generation(covering, timeout=30.0)
        finally:
            flusher.join()

    def test_validation_rejects_inverted_windows(self, controller):
        with pytest.raises(ValueError):
            CoalescingScheduler(controller, coalesce_window=1.0,
                                max_delay=0.5)


class TestControllerIntegration:
    def test_admissions_route_through_the_scheduler(self, sched):
        """With a scheduler attached, setup_bundle defers its sweep."""
        controller, scheduler, clock = sched
        instance = controller.register_app("App0")
        controller.setup_bundle(instance, two_option_rsl(0))
        # The bundle still gets its initial configuration synchronously…
        assert instance.bundles["size"].chosen is not None
        # …but the global reevaluation is pending, not run.
        assert scheduler.batches_run == 0
        scheduler.run_pending(force=True)
        assert scheduler.batches_run == 1
        assert scheduler.requests_coalesced == 1

    def test_without_scheduler_reevaluation_is_inline(self, controller):
        assert controller.scheduler is None
        instance = controller.register_app("App0")
        controller.setup_bundle(instance, two_option_rsl(0))
        # No scheduler: nothing pending anywhere, sweep already happened.
        assert controller.request_reevaluation("manual") is None

    def test_batch_telemetry(self, sched):
        controller, scheduler, clock = sched
        for i in range(4):
            scheduler.request(f"t:{i}")
        scheduler.run_pending(force=True)
        metrics = controller.metrics
        assert metrics.latest("controller.coalesced_batches") == 1.0
        assert metrics.latest("controller.batch_size") == 4.0

    def test_batch_runs_inside_the_supplied_lock(self, controller):
        lock = threading.RLock()
        seen = []

        class SpyLock:
            def __enter__(self):
                seen.append("acquired")
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                        max_delay=0.0, clock=FakeClock(),
                                        lock=SpyLock())
        scheduler.request("x")
        scheduler.run_pending()
        assert seen == ["acquired"]


def batch_events(controller):
    return [event for event in controller.flight_recorder.events()
            if event["kind"] == "batch_dispatch"]


class TestJournal:
    """A batch is recorded once, as its ``batch_dispatch`` flight event;
    the WAL holds only the ``apply`` records its sweep writes."""

    def test_a_journaled_batch_appends_no_wal_record(self, tmp_path,
                                                      sched):
        controller, scheduler, clock = sched
        journal = DurabilityJournal(str(tmp_path))
        journal.attach(controller)
        before = journal.wal.last_seq
        for i in range(3):
            scheduler.request(f"t:{i}")
        assert scheduler.run_pending(force=True)
        assert journal.wal.last_seq == before
        journal.close()

    def test_one_batch_event_per_batch(self, sched):
        controller, scheduler, clock = sched
        for i in range(3):
            scheduler.request(f"t:{i}")
        scheduler.run_pending(force=True)
        [event] = batch_events(controller)
        assert event["generation"] == 1
        assert event["size"] == 3
        assert event["reasons"] == ["t:0", "t:1", "t:2"]

    def test_batch_reasons_are_capped(self, sched):
        controller, scheduler, clock = sched
        for i in range(MAX_BATCH_REASONS + 20):
            scheduler.request(f"t:{i}")
        scheduler.run_pending(force=True)
        [event] = batch_events(controller)
        assert event["size"] == MAX_BATCH_REASONS + 20
        assert len(event["reasons"]) == MAX_BATCH_REASONS


class TestThreadedLoop:
    def test_background_thread_runs_due_batches(self, controller):
        scheduler = CoalescingScheduler(controller,
                                        coalesce_window=0.01,
                                        max_delay=0.05)
        scheduler.start()
        try:
            covering = scheduler.request("threaded")
            assert scheduler.wait_for_generation(covering, timeout=5.0)
            assert scheduler.batches_run >= 1
        finally:
            scheduler.stop()

    def test_stop_drains_pending_work(self, controller):
        clock = FakeClock()
        scheduler = CoalescingScheduler(controller, coalesce_window=10.0,
                                        max_delay=10.0, clock=clock)
        scheduler.start()
        scheduler.request("never-due")
        scheduler.stop(flush=True)
        assert scheduler.batches_run == 1
        assert not scheduler.run_pending(force=True)

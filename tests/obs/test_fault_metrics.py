"""Fault-harness tallies flowing into the metric interface."""

from repro.api.faults import (
    FaultAction,
    FaultStats,
    FaultyTransport,
    ScriptedFaultSchedule,
)
from repro.api.transport import connected_pair
from repro.metrics import MetricInterface


def counted(**counts):
    """A FaultStats that has already counted ``counts``."""
    stats = FaultStats()
    for name, value in counts.items():
        setattr(stats, name, value)
    return stats


class TestFaultStatsPublish:
    def test_snapshot_is_numeric(self):
        stats = counted(delivered=3, dropped=2, delayed=1, duplicated=4,
                        severed=True)
        assert stats.snapshot() == {"delivered": 3.0, "dropped": 2.0,
                                    "delayed": 1.0, "duplicated": 4.0,
                                    "severed": 1.0}

    def test_publish_reports_counts_and_types(self):
        stats = counted(dropped=2)
        stats.note({"type": "heartbeat"})
        stats.note({"type": "heartbeat"})
        metrics = MetricInterface()
        stats.publish(metrics, time=5.0)
        assert metrics.latest("faults.transport.dropped") == 2.0
        assert metrics.latest("faults.transport.severed") == 0.0
        assert metrics.latest("faults.transport.by_type.heartbeat") == 2.0
        assert metrics.series("faults.transport.dropped").latest().time \
            == 5.0

    def test_every_series_is_under_the_transport_prefix(self):
        stats = counted(delivered=1)
        stats.note({"type": "register"})
        metrics = MetricInterface()
        stats.publish(metrics)
        assert sorted(metrics.names()) == [
            "faults.transport.by_type.register",
            "faults.transport.delayed", "faults.transport.delivered",
            "faults.transport.dropped", "faults.transport.duplicated",
            "faults.transport.severed"]


class TestFaultyTransportMetrics:
    def test_republishes_after_each_decision(self):
        schedule = ScriptedFaultSchedule({
            ("send", 0): FaultAction.DROP,
            ("send", 2): FaultAction.DELAY,
        })
        inner, _peer = connected_pair()
        metrics = MetricInterface()
        lossy = FaultyTransport(inner, schedule, metrics=metrics)
        lossy.send({"type": "heartbeat"})   # dropped
        lossy.send({"type": "register"})    # delivered
        lossy.send({"type": "heartbeat"})   # delayed
        assert metrics.latest("faults.transport.dropped") == 1.0
        assert metrics.latest("faults.transport.delivered") == 1.0
        assert metrics.latest("faults.transport.delayed") == 1.0
        # Timestamps are the running decision count (chaos runs have no
        # shared clock), so the series is strictly ordered.
        times = [obs.time for obs in
                 metrics.series("faults.transport.dropped")]
        assert times == sorted(times)

    def test_sever_published(self):
        schedule = ScriptedFaultSchedule({
            ("send", 0): FaultAction.SEVER})
        inner, _peer = connected_pair()
        metrics = MetricInterface()
        lossy = FaultyTransport(inner, schedule, metrics=metrics)
        try:
            lossy.send({"type": "heartbeat"})
        except Exception:
            pass
        assert metrics.latest("faults.transport.severed") == 1.0

    def test_no_metrics_is_free(self):
        inner, _peer = connected_pair()
        lossy = FaultyTransport(inner, ScriptedFaultSchedule({}))
        lossy.send({"type": "heartbeat"})
        assert lossy.stats.delivered == 1


class _RedialableTransport:
    """Minimal inner transport that knows how to dial itself again."""

    def __init__(self):
        self.closed = False
        self.sent = []

    def set_receiver(self, receiver):
        pass

    def send(self, message):
        self.sent.append(message)

    def close(self):
        self.closed = True

    can_redial = True

    def redial(self):
        return _RedialableTransport()


class TestRedialContinuity:
    """A healed replacement keeps publishing the same telemetry series."""

    def drop_then_sever(self):
        return ScriptedFaultSchedule({
            ("send", 0): FaultAction.DROP,
            ("send", 1): FaultAction.SEVER,
        })

    def test_metrics_series_survives_redial(self):
        metrics = MetricInterface()
        faulty = FaultyTransport(_RedialableTransport(),
                                 self.drop_then_sever(), metrics=metrics)
        faulty.send({"type": "a"})   # dropped
        try:
            faulty.send({"type": "b"})   # severed
        except Exception:
            pass
        assert metrics.latest("faults.transport.severed") == 1.0

        healed = faulty.redial()
        assert healed.metrics is metrics
        assert healed.stats is faulty.stats
        assert not healed.closed
        healed.send({"type": "c"})   # delivered, republishes the tally
        assert metrics.latest("faults.transport.delivered") == 1.0
        assert metrics.latest("faults.transport.severed") == 0.0
        assert metrics.latest("faults.transport.dropped") == 1.0

    def test_recorder_survives_redial(self):
        from repro.obs.flightrec import EVENT_FAULT, FlightRecorder

        metrics = MetricInterface()
        recorder = FlightRecorder()
        faulty = FaultyTransport(_RedialableTransport(),
                                 self.drop_then_sever(),
                                 metrics=metrics, recorder=recorder)
        faulty.send({"type": "a"})
        assert recorder.counts()[EVENT_FAULT] == 1
        healed = faulty.redial()
        assert healed.recorder is recorder
        healed.send({"type": "b"})   # healed link never injects
        assert recorder.counts()[EVENT_FAULT] == 1
        assert metrics.latest("faults.transport.delivered") == 1.0


class TestClientRetryMetrics:
    def test_retries_counted(self):
        from repro.api import HarmonyClient, HarmonyServer
        from repro.api.retry import RetryPolicy
        from repro.cluster import Cluster
        from repro.controller import AdaptationController

        cluster = Cluster.full_mesh(["n0", "n1"], memory_mb=64.0)
        server = HarmonyServer(AdaptationController(cluster))
        client_end, server_end = connected_pair()
        server.attach(server_end)
        # Drop the client's first frame; the retry delivers the second.
        lossy = FaultyTransport(client_end, ScriptedFaultSchedule({
            ("send", 0): FaultAction.DROP}))
        client = HarmonyClient(
            lossy, retry_policy=RetryPolicy(request_timeout_seconds=0.05,
                                            max_attempts=3,
                                            backoff_initial_seconds=0.0))
        client.startup("demo")
        assert client.retries == 1

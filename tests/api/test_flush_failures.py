"""flush_pending_vars under partial failure, and push-generation order.

One client's dead transport must not cost any *other* client its batch:
a failed delivery re-stages that client's updates (still coalescing, per
its lease) while the rest of the flush proceeds.  Deliveries also carry
generation stamps — a batch older than what a client already received is
dropped, never applied backwards.
"""

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.api.variables import PendingVariableBuffer
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import TransportError


def db_rsl(client_host):
    return f"""
harmonyBundle DBclient where {{
    {{QS {{node server {{hostname server0}} {{seconds 9}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{seconds 1}} {{memory 2}}}}
        {{link client server 2}}}}
    {{DS {{node server {{hostname server0}} {{seconds 1}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{memory >=32}}
                     {{seconds 18}}}}
        {{link client server 51}}}}}}
"""


@pytest.fixture
def world():
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    server = HarmonyServer(controller, auto_flush=False,
                           lease_seconds=30.0, clock=lambda: 0.0)
    return controller, server


def connect(server, host="c1"):
    client_end, server_end = connected_pair()
    session = server.attach(server_end)
    client = HarmonyClient(client_end)
    client.startup("DBclient")
    client.bundle_setup(db_rsl(host))
    return client, session


def drain(server, *clients):
    """Deliver the initial bundle-config batches so tests start clean."""
    server.flush_pending_vars()
    for client in clients:
        client.poll_update()



def flush_all(buffer, send):
    """Flush a buffer whose every client is ready."""
    return buffer.flush(send, lambda _client_id: True)

class TestFlushPartialFailure:
    def test_failed_send_keeps_that_batch_and_delivers_the_rest(self, world):
        _controller, server = world
        client1, session1 = connect(server, "c1")
        client2, session2 = connect(server, "c2")
        key1, key2 = client1.app_key, client2.app_key
        drain(server, client1, client2)
        server.stage_updates(key1, {"where.option": "DS"})
        server.stage_updates(key2, {"where.option": "QS"})

        def boom(message):
            raise TransportError("wire torn mid-flush")

        session1.transport.send = boom  # type: ignore[method-assign]
        before = client2.updates_received
        server.flush_pending_vars()

        # The healthy client got its batch…
        assert client2.updates_received == before + 1
        assert client2.poll_update() == {"where.option": "QS"}
        assert server.buffer.pending_for(key2) == {}
        # …the failed client's stayed staged (lease still running)…
        assert server.buffer.pending_for(key1) == {"where.option": "DS"}
        assert server.lease_deadline(key1) is not None
        # …and its dead session was unbound, ready for a rejoin.
        assert key1 not in server._sessions_by_key

    def test_restaged_batch_keeps_coalescing_and_delivers_on_rejoin(
            self, world):
        _controller, server = world
        client1, session1 = connect(server, "c1")
        key1 = client1.app_key
        drain(server, client1)
        server.stage_updates(key1, {"where.option": "DS", "where.x": 1})

        def boom(message):
            raise TransportError("down")

        session1.transport.send = boom  # type: ignore[method-assign]
        server.flush_pending_vars()
        # Newer values staged during the outage override the held batch.
        server.stage_updates(key1, {"where.x": 2})
        assert server.buffer.pending_for(key1) == {
            "where.option": "DS", "where.x": 2}

        # Rejoin on a fresh transport with the resume key.
        new_client_end, new_server_end = connected_pair()
        server.attach(new_server_end)
        client1.transport = new_client_end
        new_client_end.set_receiver(client1._on_message)
        client1._replay_session()
        # The resumed register auto-flushed the held batch to the new
        # transport before the bundle replay even ran.
        assert server.buffer.pending_for(key1) == {}
        update = client1.poll_update()
        assert update == {"where.option": "DS", "where.x": 2}

    def test_closed_transport_is_equivalent_to_a_raise(self, world):
        _controller, server = world
        client1, session1 = connect(server, "c1")
        key1 = client1.app_key
        drain(server, client1)
        session1.transport.close()
        server.stage_updates(key1, {"where.option": "DS"})
        server.flush_pending_vars()
        assert server.buffer.pending_for(key1) == {"where.option": "DS"}


class TestPushGenerations:
    def test_stale_generation_is_dropped_not_rewound(self, world):
        controller, server = world
        client1, _session1 = connect(server, "c1")
        key1 = client1.app_key
        drain(server, client1)
        # Generation 5 delivered.
        server.stage_updates(key1, {"where.option": "DS"}, generation=5)
        server.flush_pending_vars()
        assert client1.poll_update() == {"where.option": "DS"}
        # A stale generation-3 batch surfaces afterwards (e.g. re-staged
        # from before a disconnect): dropped, counted, never delivered.
        before = client1.updates_received
        server.stage_updates(key1, {"where.option": "QS"}, generation=3)
        server.flush_pending_vars()
        assert client1.updates_received == before
        assert controller.metrics.latest(
            "server.stale_pushes_dropped") == 1.0
        # Newer generations keep flowing.
        server.stage_updates(key1, {"where.option": "QS"}, generation=6)
        server.flush_pending_vars()
        assert client1.poll_update() == {"where.option": "QS"}

    def test_reconfigurations_are_stamped_monotonically(self, world):
        """Server-originated pushes carry increasing generations."""
        _controller, server = world
        client1, _session1 = connect(server, "c1")
        key1 = client1.app_key
        assert server._push_seq >= 1  # bundle_setup staged a push
        seq_before = server._push_seq
        server.flush_pending_vars()
        assert server._push_generations[key1] == seq_before

    def test_unstamped_batches_always_deliver(self):
        """generation=0 means "unordered" — legacy staging never drops."""
        buffer = PendingVariableBuffer()
        delivered = []
        buffer.stage("c", "x", 1)
        flush_all(buffer, lambda cid, updates, _: delivered.append(updates))
        buffer.stage("c", "x", 2)
        flush_all(buffer, lambda cid, updates, _: delivered.append(updates))
        assert delivered == [{"x": 1}, {"x": 2}]

    def test_buffer_tracks_the_newest_staged_generation(self):
        buffer = PendingVariableBuffer()
        buffer.stage("c", "x", 1, generation=4)
        buffer.stage("c", "y", 2, generation=2)  # older: no rewind
        seen = []
        flush_all(buffer,
                  lambda cid, updates, gen: seen.append((updates, gen)))
        assert seen == [({"x": 1, "y": 2}, 4)]
        buffer.stage("c", "z", 3)  # drained: the next batch starts at 0
        flush_all(buffer,
                  lambda cid, updates, gen: seen.append((updates, gen)))
        assert seen[1:] == [({"z": 3}, 0)]

    def test_discard_clears_the_generation(self):
        buffer = PendingVariableBuffer()
        buffer.stage("c", "x", 1, generation=7)
        buffer.discard("c")
        assert buffer.pending_for("c") == {}
        buffer.stage("c", "y", 2)
        seen = []
        flush_all(buffer,
                  lambda cid, updates, gen: seen.append((updates, gen)))
        assert seen == [({"y": 2}, 0)]

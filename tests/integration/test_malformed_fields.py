"""A request field that does not convert is answered, over both front ends.

Each typed request field gets a value of the wrong type.  The server
must answer with an ``error`` reply naming the field and keep serving
the connection: the conversion failure is the client's fault, so it is
neither counted as an unhandled server error nor — with
``fail_stop_on_error`` — a reason to fail-stop the whole server.
"""

import queue

import pytest

from repro.api import HarmonyServer, connected_pair
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.persistence import DurabilityJournal

MALFORMED = [
    ("report_metric", {"name": "latency", "value": "abc"}, "value"),
    ("status", {"max_traces": "lots"}, "max_traces"),
    ("repl_hello", {"standby_id": "sb", "last_seq": "x"}, "last_seq"),
    ("repl_ack", {"standby_id": "sb", "seq": "x"}, "seq"),
]


@pytest.mark.parametrize("msg_type,fields,field", MALFORMED,
                         ids=[f"{t}.{f}" for t, _, f in MALFORMED])
def test_malformed_field_gets_an_error_reply(server_factory, tmp_path,
                                             msg_type, fields, field):
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1"], memory_mb=96))
    DurabilityJournal(str(tmp_path), fsync="never").attach(controller)
    server = HarmonyServer(controller, fail_stop_on_error=True)
    # Replication on, so repl_hello/repl_ack reach their field checks.
    assert server.enable_replication() == "primary"
    handle = server_factory(server)
    transport = handle.connect()
    replies = queue.Queue()
    transport.set_receiver(replies.put)
    transport.send({"type": "register", "app_name": "A"})
    assert replies.get(timeout=10)["type"] == "registered"

    transport.send({"type": msg_type, **fields})
    reply = replies.get(timeout=10)
    assert reply["type"] == "error"
    assert repr(field) in reply["message"]

    # The connection is still served.
    transport.send({"type": "status", "max_traces": 0})
    assert replies.get(timeout=10)["type"] == "status_report"
    assert not transport.closed
    assert not server.failed
    assert controller.metrics.latest("server.unhandled_errors") is None
    transport.close()


def test_unhashable_resume_key_on_a_shard_with_handoffs_is_answered():
    """The federation gate reads ``resume_key`` before any conversion."""
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1"], memory_mb=96))
    server = HarmonyServer(controller)
    server.mark_session_moved("B.1", "h:2")
    client_end, server_end = connected_pair()
    server.attach(server_end)
    replies = []
    client_end.set_receiver(replies.append)
    client_end.send({"type": "register", "app_name": "A",
                     "resume_key": ["B.1"]})
    assert [reply["type"] for reply in replies] == ["registered"]
    assert controller.metrics.latest("server.unhandled_errors") is None

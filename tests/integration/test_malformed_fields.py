"""A request field that does not convert is answered, over both front ends.

Each typed request field gets a value of the wrong type: a ``str``
field accepts only a JSON string and a ``bool`` field only a JSON
boolean, so neither ``["A"]`` nor ``"false"`` is coerced.  The server
must answer with an ``error`` reply naming the field and keep serving
the connection: the conversion failure is the client's fault, so it is
neither counted as an unhandled server error nor — with
``fail_stop_on_error`` — a reason to fail-stop the whole server.
"""

import queue

import pytest

from repro.api import HarmonyServer
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.persistence import DurabilityJournal

MALFORMED = [
    ("register", {"app_name": ["A"]}, "app_name"),
    ("register", {"app_name": "A", "use_interrupts": "false"},
     "use_interrupts"),
    # A list is unhashable: the field check must answer it before any
    # lookup by key could raise.
    ("register", {"app_name": "A", "resume_key": ["B.1"]}, "resume_key"),
    ("bundle_setup", {"rsl": ["harmonyBundle A b {}"]}, "rsl"),
    ("add_variable", {"name": 7}, "name"),
    ("report_metric", {"name": 7, "value": 1.0}, "name"),
    ("report_metric", {"name": "latency", "value": "abc"}, "value"),
    ("status", {"prefix": 7}, "prefix"),
    ("status", {"max_traces": "lots"}, "max_traces"),
    ("repl_hello", {"standby_id": 7, "last_seq": 0}, "standby_id"),
    ("repl_hello", {"standby_id": "sb", "last_seq": "x"}, "last_seq"),
    ("repl_hello", {"standby_id": "sb", "last_seq": 0, "last_crc": 7},
     "last_crc"),
    ("repl_ack", {"standby_id": ["sb"], "seq": 0}, "standby_id"),
    ("repl_ack", {"standby_id": "sb", "seq": "x"}, "seq"),
]

#: Types the table no longer holds, which an old peer may still send.
RETIRED = ["shard_lookup", "shard_map", "shard_moved"]


@pytest.mark.parametrize("msg_type,fields,field", MALFORMED,
                         ids=[f"{t}.{f}" for t, _, f in MALFORMED])
def test_malformed_field_gets_an_error_reply(server_factory, tmp_path,
                                             closing, msg_type, fields,
                                             field):
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1"], memory_mb=96))
    closing(DurabilityJournal(str(tmp_path), fsync="never")).attach(
        controller)
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


@pytest.mark.parametrize("msg_type", RETIRED)
def test_retired_message_type_gets_the_unknown_type_error(server_factory,
                                                          msg_type):
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1"], memory_mb=96))
    server = HarmonyServer(controller, fail_stop_on_error=True)
    handle = server_factory(server)
    transport = handle.connect()
    replies = queue.Queue()
    transport.set_receiver(replies.put)
    transport.send({"type": "register", "app_name": "A"})
    assert replies.get(timeout=10)["type"] == "registered"

    transport.send({"type": msg_type, "app_name": "A"})
    reply = replies.get(timeout=10)
    assert reply["type"] == "error"
    assert f"unknown message type {msg_type!r}" in reply["message"]

    transport.send({"type": "status", "max_traces": 0})
    assert replies.get(timeout=10)["type"] == "status_report"
    assert not transport.closed
    assert not server.failed
    transport.close()

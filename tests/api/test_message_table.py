"""Every client message type against every gate a session can be behind.

The product of the eleven client types and five server/session states
pins what the server answers — the reply's ``type`` and ``error.code``,
or no reply at all — so the order of the gates (the crash-only drop,
standby redirect, eviction, the registration check)
cannot drift.  In-process transports deliver
synchronously, so each case is one send and one look at what came back.
"""

import pytest

from repro.api import HarmonyServer, connected_pair
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.persistence import DurabilityJournal

RSL = """
harmonyBundle A run {
    {fixed {node worker {seconds 10} {memory 8}}}}
"""

#: One well-formed request per client type.
REQUESTS = {
    "register": {"app_name": "A"},
    "bundle_setup": {"rsl": RSL},
    "add_variable": {"name": "run.option", "default": "x",
                     "var_type": "string"},
    "wait_for_update": {},
    "report_metric": {"name": "latency", "value": 1.5},
    "query_nodes": {},
    "status": {"max_traces": 1},
    "heartbeat": {"key": "A.1"},
    "end": {},
    "repl_hello": {"standby_id": "sb", "last_seq": 0},
    "repl_ack": {"standby_id": "sb", "seq": 0},
}

STATES = ("healthy", "standby", "failed", "evicted", "unregistered")

MOVED = [("controller_moved", None)]
LEASE_EXPIRED = [("lease_expired", None)]
ERROR = [("error", None)]
NONE = []

#: type -> the outcome in each of STATES, in order.
EXPECTED = {
    "register": ([("registered", None)], MOVED, NONE,
                 [("registered", None)], [("registered", None)]),
    "bundle_setup": ([("bundle_ok", None)], MOVED, NONE,
                     LEASE_EXPIRED, ERROR),
    "add_variable": ([("variable_added", None)],
                     [("variable_added", None)], NONE, LEASE_EXPIRED,
                     ERROR),
    "wait_for_update": (NONE, NONE, NONE, LEASE_EXPIRED, NONE),
    "report_metric": (NONE, MOVED, NONE, LEASE_EXPIRED, ERROR),
    "query_nodes": ([("node_list", None)], [("node_list", None)], NONE,
                    LEASE_EXPIRED, ERROR),
    "status": ([("status_report", None)], [("status_report", None)],
               NONE, LEASE_EXPIRED, [("status_report", None)]),
    "heartbeat": ([("heartbeat_ack", None)], [("heartbeat_ack", None)],
                  NONE, LEASE_EXPIRED, ERROR),
    "end": ([("ended", None)], MOVED, NONE, LEASE_EXPIRED, ERROR),
    # A demoted standby has no replication primary to subscribe to.
    "repl_hello": ([("repl_records", None)], ERROR, NONE, LEASE_EXPIRED,
                   [("repl_records", None)]),
    "repl_ack": (NONE, NONE, NONE, LEASE_EXPIRED, NONE),
}


class Case:
    """A replicating, lease-armed server with one session in ``state``."""

    def __init__(self, state, tmp_path, closing):
        self.now = 0.0
        controller = AdaptationController(
            Cluster.full_mesh(["n0", "n1"], memory_mb=96))
        closing(DurabilityJournal(str(tmp_path), fsync="never")).attach(
            controller)
        self.server = HarmonyServer(
            controller, lease_seconds=10.0, clock=lambda: self.now)
        assert self.server.enable_replication() == "primary"
        self.state = state
        self.client_end, server_end = connected_pair()
        self.session = self.server.attach(server_end)
        self.replies = []
        self.client_end.set_receiver(self.replies.append)
        if state != "unregistered":
            self.client_end.send({"type": "register", "app_name": "A"})
            self.client_end.send({"type": "bundle_setup", "rsl": RSL})
            assert [r["type"] for r in self.replies] == [
                "registered", "variable_update", "bundle_ok"]
        key = "A.1"
        if state == "standby":
            self.server.demote()
        elif state == "failed":
            self.server.fail_stop()
        elif state == "evicted":
            self.now = 100.0
            assert self.server.check_leases() == [key]
        self.replies.clear()

    def send(self, message):
        if self.state == "failed":
            # The frame a reader thread had already taken off the wire
            # when the crash landed: it reaches the session's receiver
            # although fail_stop has closed the line.
            self.session._on_message(message)
        else:
            self.client_end.send(message)
        return [(reply["type"], reply.get("code"))
                for reply in self.replies]


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("msg_type", sorted(REQUESTS))
def test_gate_outcome(msg_type, state, tmp_path, closing):
    case = Case(state, tmp_path, closing)
    metrics = case.server.controller.metrics
    counted = metrics.latest(f"server.rpc.{msg_type}")
    outcome = case.send({"type": msg_type, **REQUESTS[msg_type]})
    assert outcome == EXPECTED[msg_type][STATES.index(state)]
    assert metrics.latest("server.unhandled_errors") is None
    if state == "failed":
        # Crash-only: the request is dropped before it is even counted,
        # and the line it came in on stays closed.
        assert case.session.transport.closed
        assert metrics.latest(f"server.rpc.{msg_type}") == counted


@pytest.mark.parametrize("msg_type", ["shard_lookup", "shard_map",
                                      "shard_moved"])
def test_a_retired_message_type_gets_the_unknown_type_error(msg_type,
                                                            tmp_path,
                                                            closing):
    """A type the table does not hold — the ``shard_*`` vocabulary, which
    an old peer may still send — gets the ordinary unknown-type refusal
    and the connection stays up."""
    case = Case("healthy", tmp_path, closing)
    assert case.send({"type": msg_type, "app_name": "A"}) == ERROR
    assert f"unknown message type {msg_type!r}" in \
        case.replies[0]["message"]
    assert not case.client_end.closed

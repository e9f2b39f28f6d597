"""Trace-context propagation edge cases.

The wire field is optional and additive: old clients omit it, broken
peers may send garbage, and unsampled requests must cost nothing.
"""

import dataclasses

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.api.protocol import TRACE_CTX_FIELD, make_message
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer
from tests.conftest import spans_named

DEMO_RSL = """
harmonyBundle demo size {
    {small {node n {seconds 60} {memory 24}}}
    {large {node n {seconds 35} {memory 24} {replicate 2}}
           {communication 4}}}
"""


def build_stack(tracer=None):
    cluster = Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=64.0)
    controller = AdaptationController(cluster, tracer=tracer)
    server = HarmonyServer(controller)
    client_end, server_end = connected_pair()
    server.attach(server_end)
    return controller, server, client_end


class TestFromWire:
    def test_missing_field_is_none(self):
        assert TraceContext.from_wire(None) is None

    @pytest.mark.parametrize("garbage", [
        "not-a-dict", 42, [], {},
        {"trace_id": "", "span_id": 1},
        {"trace_id": "x" * 65, "span_id": 1},
        {"trace_id": 7, "span_id": 1},
        {"trace_id": "abc", "span_id": "one"},
        {"trace_id": "abc", "span_id": -1},
        {"trace_id": "abc", "span_id": True},
    ])
    def test_malformed_payloads_degrade_to_none(self, garbage):
        assert TraceContext.from_wire(garbage) is None

    def test_unsampled_context_is_none(self):
        raw = {"trace_id": "abc", "span_id": 3, "sampled": False}
        assert TraceContext.from_wire(raw) is None

    def test_round_trip(self):
        ctx = TraceContext(trace_id="abcd1234", span_id=9)
        assert TraceContext.from_wire(dataclasses.asdict(ctx)) == ctx


class TestClientSampling:
    def test_default_null_tracer_stamps_nothing(self):
        _controller, _server, client_end = build_stack()
        sent = []
        original = client_end.send
        client_end.send = lambda m: (sent.append(m), original(m))[1]
        client = HarmonyClient(client_end)
        client.startup("demo")
        assert all(TRACE_CTX_FIELD not in m for m in sent)
        assert client.tracer is NULL_TRACER

    def test_a_tracer_stamps_every_request(self):
        _controller, _server, client_end = build_stack()
        sent = []
        original = client_end.send
        client_end.send = lambda m: (sent.append(m), original(m))[1]
        tracer = Tracer()
        client = HarmonyClient(client_end, tracer=tracer)
        client.startup("demo")
        client.bundle_setup(DEMO_RSL)
        client.query_status()
        stamped = [m for m in sent if TRACE_CTX_FIELD in m]
        assert [m["type"] for m in stamped] == ["register", "bundle_setup",
                                                "status"]
        assert tracer.spans_started == 3

    def test_sampled_request_roots_a_trace(self):
        controller, _server, client_end = build_stack(tracer=Tracer())
        tracer = Tracer()
        client = HarmonyClient(client_end, tracer=tracer)
        client.startup("demo")
        [client_span] = spans_named(tracer, "client.request")
        assert client_span.trace_id is not None
        [dispatch] = spans_named(controller.tracer, "server.dispatch")
        assert dispatch.trace_id == client_span.trace_id
        assert dispatch.parent_id == client_span.span_id


class TestServerWireCompat:
    def test_garbage_trace_ctx_is_ignored(self):
        controller, _server, client_end = build_stack(tracer=Tracer())
        client = HarmonyClient(client_end)
        message = make_message("register", app_name="demo",
                               use_interrupts=False)
        message[TRACE_CTX_FIELD] = {"trace_id": 123, "span_id": "nope"}
        reply = client._request_once(message)
        assert reply["type"] == "registered"
        assert spans_named(controller.tracer, "server.dispatch") == []

    def test_disabled_tracing_never_parses_the_field(self):
        _controller, _server, client_end = build_stack()  # NULL_TRACER
        client = HarmonyClient(client_end)
        message = make_message("register", app_name="demo",
                               use_interrupts=False)
        message[TRACE_CTX_FIELD] = "garbage that would fail any parse"
        assert client._request_once(message)["type"] == "registered"


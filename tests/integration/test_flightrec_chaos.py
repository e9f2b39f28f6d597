"""The flight recorder under seeded chaos: dump, timeline, determinism.

The ``harmony-repro flightrec`` command replays a fixed chaos scenario
(three DBclients, the middle one's link dropping a seeded fraction of
sends) and dumps the server's flight ring as JSONL.  These tests pin
down the artifact's shape: every line parses, injected faults appear
interleaved with the server's own events (RPC arrivals, batch
dispatches, pushes), and the same seed yields the same fault schedule.
"""

import json

import pytest

from repro.cli import main
from repro.obs.flightrec import (
    EVENT_BATCH,
    EVENT_FAULT,
    EVENT_PUSH,
    EVENT_RPC_IN,
    EVENT_SERVER_ERROR,
)


def run_flightrec(tmp_path, seed, name="flight.jsonl"):
    out = tmp_path / name
    assert main(["flightrec", "--seed", str(seed), "--out", str(out)]) == 0
    return [json.loads(line) for line in
            out.read_text().splitlines() if line]


@pytest.fixture(scope="module")
def seed7_events(tmp_path_factory):
    """One seed-7 run (~6 s), shared by every test that only reads it."""
    return run_flightrec(tmp_path_factory.mktemp("flightrec"), seed=7)


class TestChaosDump:
    def test_dump_interleaves_faults_with_server_events(self, seed7_events):
        events = seed7_events
        kinds = [event["kind"] for event in events]
        assert EVENT_FAULT in kinds
        assert EVENT_RPC_IN in kinds
        assert EVENT_BATCH in kinds
        assert EVENT_PUSH in kinds
        assert EVENT_SERVER_ERROR not in kinds
        # Interleaved, not appended after the fact: at least one fault
        # lands before the last server-side event.
        first_fault = kinds.index(EVENT_FAULT)
        assert any(kind != EVENT_FAULT for kind in kinds[first_fault:])

    def test_every_line_is_structured(self, seed7_events):
        events = seed7_events
        assert events, "empty flight dump"
        for event in events:
            assert set(event) >= {"kind", "seq", "time"}
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        faults = [e for e in events if e["kind"] == EVENT_FAULT]
        assert all(e["action"] == "drop" for e in faults)
        assert all(e["direction"] == "send" for e in faults)

    def test_same_seed_same_fault_schedule(self, tmp_path, seed7_events):
        def fault_fingerprint(events):
            return [(e["action"], e["rpc"]) for e in events
                    if e["kind"] == EVENT_FAULT]

        first = fault_fingerprint(seed7_events)
        second = fault_fingerprint(run_flightrec(tmp_path, 7))
        assert first == second
        assert first, "seed 7 injected no faults"

    def test_different_seed_different_schedule(self, tmp_path,
                                               seed7_events):
        counts = {}
        for seed in (7, 11, 13):
            events = seed7_events if seed == 7 else \
                run_flightrec(tmp_path, seed, f"s{seed}.jsonl")
            counts[seed] = sum(1 for e in events
                               if e["kind"] == EVENT_FAULT)
        # Not all three seeds may differ pairwise, but a frozen schedule
        # would make every run identical.
        assert len(set(counts.values())) > 1 or counts[7] == 0


class TestServerErrorDump:
    def test_unhandled_error_dumps_the_ring(self, tmp_path):
        from repro.api import HarmonyServer
        from repro.cluster import Cluster
        from repro.controller import AdaptationController

        dump = tmp_path / "crash.jsonl"
        cluster = Cluster.full_mesh(["n0", "n1"], memory_mb=64.0)
        controller = AdaptationController(cluster)
        server = HarmonyServer(controller, flight_dump_path=str(dump))
        controller.flight_recorder.record(EVENT_RPC_IN, rpc="register")
        server.note_server_error(RuntimeError("boom"))
        lines = [json.loads(line) for line in
                 dump.read_text().splitlines() if line]
        assert lines[-1]["kind"] == EVENT_SERVER_ERROR
        assert lines[-1]["error"] == "RuntimeError"
        assert any(line["kind"] == EVENT_RPC_IN for line in lines)

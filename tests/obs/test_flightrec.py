"""The flight recorder: bounded event ring, counts, JSONL dumps."""

import json

from repro.obs.flightrec import (
    EVENT_BATCH,
    EVENT_FAULT,
    EVENT_RPC_IN,
    CAPACITY,
    FlightRecorder,
)


def ticking_clock(start=100.0, step=1.0):
    state = {"now": start - step}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestRing:
    def test_records_in_order_with_monotonic_seq(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_RPC_IN, rpc="register")
        recorder.record(EVENT_BATCH, generation=1)
        events = recorder.events()
        assert [e["kind"] for e in events] == [EVENT_RPC_IN, EVENT_BATCH]
        assert events[0]["seq"] < events[1]["seq"]
        assert events[0]["time"] < events[1]["time"]

    def test_capacity_bounds_the_ring_not_the_total(self):
        recorder = FlightRecorder(clock=ticking_clock())
        for index in range(CAPACITY + 6):
            recorder.record(EVENT_RPC_IN, index=index)
        assert len(recorder) == CAPACITY
        assert recorder.events_recorded == CAPACITY + 6
        indices = [e["index"] for e in recorder.events()]
        assert indices[:2] == [6, 7]
        assert indices[-1] == CAPACITY + 5

    def test_counts_by_kind(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_RPC_IN, rpc="register")
        recorder.record(EVENT_FAULT, action="drop")
        recorder.record(EVENT_RPC_IN, rpc="end")
        assert recorder.counts() == {EVENT_RPC_IN: 2, EVENT_FAULT: 1}

    def test_clear_empties_ring_keeps_total(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_RPC_IN)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.events_recorded == 1


class TestDump:
    def test_jsonl_one_event_per_line(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_FAULT, action="drop", rpc="bundle_setup")
        recorder.record(EVENT_BATCH, generation=3, changes=2)
        lines = recorder.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["action"] == "drop"
        assert parsed[1]["generation"] == 3

    def test_dump_writes_file(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_RPC_IN, rpc="status")
        path = tmp_path / "flight.jsonl"
        recorder.dump(str(path))
        assert json.loads(path.read_text().strip())["rpc"] == "status"

    def test_unjsonable_fields_are_stringified(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record(EVENT_RPC_IN, weird=object())
        json.loads(recorder.to_jsonl())  # default=str keeps it dumpable

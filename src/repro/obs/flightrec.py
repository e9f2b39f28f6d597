"""The chaos flight recorder: a bounded ring of recent runtime events.

When a chaos or parity suite fails, the assertion message says *what*
diverged but not *what happened* — which frames were dropped, which
lease expired first, which batch the scheduler coalesced the victim
into.  The flight recorder answers that: every interesting runtime
event (RPCs in/out, fault injections, session registrations, ends and
evictions, batch dispatches, performance events, WAL appends,
backpressure rejections, server errors) lands in a fixed-capacity ring
that can be dumped to JSONL on demand, on an unhandled server error, or
from a failing chaos test — turning "seed-15 parity test failed" into a
replayable event timeline.  It is the controller's only event history:
metrics count events, and the WAL holds only what replay applies.

The ring is deliberately cheap: one dict build outside the lock, one
lock-guarded deque append.  It is always on; the capacity bound (not a
sampling rate) is what keeps it safe at production rates.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, deque
from typing import Any, Callable

__all__ = ["FlightRecorder", "CAPACITY",
           "EVENT_RPC_IN", "EVENT_RPC_OUT", "EVENT_FAULT",
           "EVENT_BATCH",
           "EVENT_WAL_APPEND", "EVENT_BACKPRESSURE", "EVENT_PUSH",
           "EVENT_SERVER_ERROR", "EVENT_PROMOTION", "EVENT_DEMOTION",
           "EVENT_REPLICATION"]

#: Structured event kinds.  Free-form kinds are allowed: the controller
#: records each session transition under its own name (``registered``,
#: ``rejoined``, ``ended``, ``evicted``) and each performance trigger as
#: ``performance_event``.
EVENT_RPC_IN = "rpc_in"
EVENT_RPC_OUT = "rpc_out"
EVENT_FAULT = "fault_injected"
EVENT_BATCH = "batch_dispatch"
EVENT_WAL_APPEND = "wal_append"
EVENT_BACKPRESSURE = "backpressure_reject"
EVENT_PUSH = "push"
EVENT_SERVER_ERROR = "server_error"
EVENT_PROMOTION = "promotion"
EVENT_DEMOTION = "demotion"
EVENT_REPLICATION = "replication"

#: Events the ring keeps; older ones are dropped first.
CAPACITY = 4096


class FlightRecorder:
    """Thread-safe ring of the latest :data:`CAPACITY` runtime events.

    >>> recorder = FlightRecorder(clock=lambda: 0.0)
    >>> recorder.record("rpc_in", rpc="register")
    >>> recorder.record("fault_injected", fault="drop")
    >>> [event["kind"] for event in recorder.events()]
    ['rpc_in', 'fault_injected']
    >>> recorder.events_recorded      # total ever, beyond the ring bound
    2
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._events: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self.events_recorded = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; fields must be JSON-serializable."""
        event = {"seq": next(self._seq), "time": self._clock(),
                 "kind": kind}
        event.update(fields)
        with self._lock:
            self._events.append(event)
            self.events_recorded += 1

    def events(self) -> list[dict[str, Any]]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._events)

    def counts(self) -> dict[str, int]:
        """Events currently in the ring, tallied by kind."""
        return dict(Counter(event["kind"] for event in self.events()))

    def to_jsonl(self) -> str:
        """One JSON object per event, newline-delimited, oldest first."""
        return "".join(json.dumps(event, sort_keys=True, default=str) + "\n"
                       for event in self.events())

    def dump(self, path: Any) -> str:
        """Write the ring as JSONL to ``path``; returns the path written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return str(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

"""Spans around each layer's public entry points, installed from outside.

The traced run answers "which layer did the op's CPU go to".  Nothing
under ``src/`` is edited: :func:`install` replaces class attributes, and
module-level functions in every ``repro`` module that imported them by
name, with wrappers that record one span per call — name, wall start
and end, thread CPU consumed, parent span.  The same table is installed
in the harness process and, by the launcher, in the server process.

A layer's *self time* is its spans' CPU minus the CPU of their child
spans, so nested layers (a sweep calling the matcher calling nothing)
never count the same microsecond twice.  Spans carry thread CPU, not
wall: a dispatch blocked in ``send`` or a reader asleep in ``recv``
costs nothing.
"""

from __future__ import annotations

import json
import sys
import threading
import time

#: span name -> what to wrap: ``"module:Class.method"`` or
#: ``"module:function"``.
TARGETS = {
    "rsl.build_bundle": "repro.rsl.builder:build_bundle",
    "allocation.match": "repro.allocation.matcher:Matcher.match",
    "allocation.instantiate":
        "repro.allocation.instantiate:InstantiationCache.instantiate",
    "prediction.predict_app":
        "repro.controller.controller:AdaptationController.predict_app",
    "prediction.predict_all":
        "repro.controller.controller:AdaptationController.predict_all",
    "controller.reevaluate":
        "repro.controller.controller:ModelDrivenPolicy.reevaluate",
    "controller.configure_new_bundle":
        "repro.controller.controller:ModelDrivenPolicy.configure_new_bundle",
    "controller.optimize_bundle":
        "repro.controller.optimizer:GreedyOptimizer.optimize_bundle",
    "controller.optimize_pair":
        "repro.controller.optimizer:GreedyOptimizer.optimize_pair",
    "api.encode": "repro.api.protocol:encode_message",
    "api.decode": "repro.api.protocol:FrameDecoder.feed",
    "api.push": "repro.api.server:HarmonySession.push_updates",
    "persistence.append": "repro.persistence.wal:WriteAheadLog.append",
    "persistence.snapshot": "repro.persistence.snapshot:write_snapshot",
    "persistence.load_snapshot": "repro.persistence.snapshot:latest_snapshot",
    "persistence.apply_state": "repro.persistence.codec:apply_state",
    "persistence.restore": "repro.persistence.recovery:restore_controller",
    "metrics.report": "repro.metrics.interface:MetricInterface.report",
}

#: Transports whose ``set_receiver`` is wrapped so that the receiver —
#: the dispatch entry point on either end of a connection — is a span.
RECEIVER_TARGETS = ("repro.api.transport:TcpTransport",
                    "repro.api.aio:AsyncioTransport")

#: span name -> per-layer metric its self time is summed into.
LAYER_OF = {
    "rsl.build_bundle": "rsl.parse_ms_per_op",
    "allocation.match": "allocation.match_ms_per_op",
    "allocation.instantiate": "allocation.match_ms_per_op",
    "prediction.predict_app": "prediction.predict_ms_per_op",
    "prediction.predict_all": "prediction.predict_ms_per_op",
    "controller.reevaluate": "controller.sweep_self_ms_per_op",
    "controller.configure_new_bundle": "controller.sweep_self_ms_per_op",
    "controller.optimize_bundle": "controller.sweep_self_ms_per_op",
    "controller.optimize_pair": "controller.sweep_self_ms_per_op",
    "api.encode": "api.codec_ms_per_op",
    "api.decode": "api.codec_ms_per_op",
    "api.dispatch": "api.dispatch_ms_per_op",
    "api.push": "api.push_ms_per_op",
    "persistence.append": "persistence.append_ms_per_op",
    "persistence.snapshot": "persistence.snapshot_ms_per_op",
    "persistence.load_snapshot": "persistence.recover_load_ms",
    "persistence.apply_state": "persistence.recover_load_ms",
    "persistence.restore": "persistence.recover_replay_ms",
    "metrics.report": "metrics.report_ms_per_op",
}


class SpanRecorder:
    """Collects spans in memory, one list per thread (no locking)."""

    def __init__(self, process: str):
        self.process = process
        self._local = threading.local()
        self._threads: list[list] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _thread_spans(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])   # spans, open-span stack
            self._threads.append(state[0])
        return state

    def wrap(self, name: str, func, size=None):
        """``func`` recording one ``name`` span per call.

        ``size(args, result)`` optionally attaches a byte count.
        """
        thread_spans = self._thread_spans
        wall, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            spans, stack = thread_spans()
            index = len(spans)
            span = [name, 0, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = wall()
            cpu0 = cpu()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = cpu() - cpu0
                span[2] = wall()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for name, target in TARGETS.items():
            module_name, _, path = target.partition(":")
            module = _import(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self.wrap(
                    name, getattr(owner, attr), _SIZES.get(name)))
                continue
            func = getattr(module, attr)
            wrapper = self.wrap(name, func, _SIZES.get(name))
            # Replace the function wherever it was imported by name.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(other).items()):
                    if value is func:
                        self._patch(other, key, wrapper)
        for target in RECEIVER_TARGETS:
            module_name, _, owner_name = target.partition(":")
            owner = getattr(_import(module_name), owner_name)
            self._patch(owner, "set_receiver",
                        self._wrap_set_receiver(owner.set_receiver))

    def _wrap_set_receiver(self, set_receiver):
        def traced_set_receiver(transport, receiver):
            return set_receiver(transport,
                                self.wrap("api.dispatch", receiver))
        return traced_set_receiver

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def rows(self) -> list[dict]:
        """Every finished span as a dict; ``parent`` indexes the list."""
        rows = []
        for spans in list(self._threads):
            offset = len(rows)
            for name, start, end, cpu_ns, parent, size in list(spans):
                rows.append({
                    "process": self.process, "name": name, "start": start,
                    "end": end, "cpu_ns": cpu_ns, "bytes": size,
                    "parent": parent + offset if parent >= 0 else -1})
        return rows


def _import(module_name: str):
    __import__(module_name)
    return sys.modules[module_name]


_SIZES = {
    "api.encode": lambda args, result: len(result),
}


def assign_ops(rows: list[dict], windows: list[tuple[int, int]],
               ) -> list[int]:
    """For each span, the window that holds its start, or ``-1``.

    One op is in flight at a time and ``perf_counter_ns`` is one clock
    for every process on the host, so an op's wall window identifies its
    spans in the server too.  Spans outside every window are set-up.
    """
    ops = [-1] * len(rows)
    window = 0
    for index in sorted(range(len(rows)), key=lambda i: rows[i]["start"]):
        start = rows[index]["start"]
        while window < len(windows) and windows[window][1] < start:
            window += 1
        if window < len(windows) and windows[window][0] <= start:
            ops[index] = window
    return ops


def merge(rows: list[dict], more: list[dict]) -> list[dict]:
    """``rows`` followed by ``more``, with ``more``'s parents rebased."""
    offset = len(rows)
    for row in more:
        if row["parent"] >= 0:
            row["parent"] += offset
    return rows + more


def self_times(rows: list[dict], ops: list[int]) -> dict[str, int]:
    """Self CPU ns per span name, over the spans inside a window."""
    child_cpu = [0] * len(rows)
    for row in rows:
        if row["parent"] >= 0:
            child_cpu[row["parent"]] += row["cpu_ns"]
    totals: dict[str, int] = {}
    for row, op, children in zip(rows, ops, child_cpu):
        if op >= 0:
            totals[row["name"]] = totals.get(row["name"], 0) \
                + max(0, row["cpu_ns"] - children)
    return totals


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]

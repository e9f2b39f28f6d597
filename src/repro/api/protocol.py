"""Wire protocol between applications and the Harmony server.

The prototype in the paper is "a server that listens on a well-known port
and waits for connections from application processes".  Messages here are
JSON objects framed with a 4-byte big-endian length prefix; the same message
vocabulary flows over both the TCP transport and the in-process transport.

:data:`MESSAGES` is the vocabulary: one row per message type, giving its
fields and their converters, its reply, and the gates and locks the server
applies to it.  The server's dispatch, the asyncio front end's pool split,
the client's mapping of refusals to exceptions and the type sets below are
all read from it; docs/wire-protocol.md §2–§3 are its prose form.

The protocol's semantics — resuming a session by ``resume_key``, the
``error`` codes, the replication stream, and the failover redirect
(``controller_moved``) — are specified in docs/wire-protocol.md and
docs/replication.md.
"""

from __future__ import annotations

import json
import reprlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import (
    ControllerBusyError,
    ControllerMovedError,
    HarmonyError,
    LeaseExpiredError,
    ProtocolError,
)

__all__ = ["encode_message", "FrameDecoder", "make_message",
           "require_field", "MessageSpec", "MESSAGES", "CLIENT_TYPES",
           "SERVER_TYPES", "MUTATING_TYPES", "LOCKED_TYPES",
           "HEARTBEAT", "HEARTBEAT_ACK", "LEASE_EXPIRED",
           "STATUS", "STATUS_REPORT", "VARIABLE_UPDATE", "ERROR",
           "CONTROLLER_BUSY", "CONTROLLER_MOVED",
           "TRACE_CTX_FIELD", "REPL_HELLO", "REPL_ACK", "REPL_RECORDS",
           "REPL_SNAPSHOT"]

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The session-liveness vocabulary (named so callers need no literals).
HEARTBEAT = "heartbeat"
HEARTBEAT_ACK = "heartbeat_ack"
LEASE_EXPIRED = "lease_expired"

#: The telemetry-query vocabulary.
STATUS = "status"
STATUS_REPORT = "status_report"

#: The reconfiguration push and the generic refusal.
VARIABLE_UPDATE = "variable_update"
ERROR = "error"

#: The replication vocabulary (standby -> primary rides the client
#: direction; the stream back rides the server direction).
REPL_HELLO = "repl_hello"
REPL_ACK = "repl_ack"
REPL_RECORDS = "repl_records"
REPL_SNAPSHOT = "repl_snapshot"

#: The failover redirect: "I am not the primary; go there."
CONTROLLER_MOVED = "controller_moved"

#: Error code of a transient, retryable refusal: the client library
#: maps it to :class:`~repro.errors.ControllerBusyError` and retries with
#: backoff.  The server in this package never sends it: its one source
#: of backpressure, the asyncio front end's bounded write queue, drops
#: the reply instead, and the client's request times out and retries.
CONTROLLER_BUSY = "controller_busy"

#: Name of the *optional* trace-propagation field a client may stamp on
#: any request: ``{"trace_id": str, "span_id": int, "sampled": bool}``
#: (see :class:`repro.obs.trace.TraceContext` and docs/wire-protocol.md).
#: Strictly additive and backward-compatible — receivers that do not
#: understand it (or receive garbage in it) ignore it.
TRACE_CTX_FIELD = "trace_ctx"


def _as_sent(value: Any) -> Any:
    """The converter of a field the receiver takes exactly as sent."""
    return value


def string(value: Any) -> str:
    """The converter of a text field: a JSON string, nothing else."""
    if not isinstance(value, str):
        raise TypeError("expected a JSON string")
    return value


def boolean(value: Any) -> bool:
    """The converter of a flag: a JSON ``true`` or ``false``, nothing else."""
    if not isinstance(value, bool):
        raise TypeError("expected a JSON boolean")
    return value


@dataclass(frozen=True, eq=False)
class MessageSpec:
    """One row of :data:`MESSAGES`: everything a message type means.

    ``fields`` maps each field to the converter the receiver applies; a
    name ending in ``?`` is optional, as in docs/wire-protocol.md.
    ``request`` rows flow client -> server; ``reply`` is what answers one
    (``None``: nothing does).  The rest are the server's rules for a
    request:

    * ``mutating`` — refused by a standby (``controller_moved``);
    * ``locked`` — handled under ``controller_lock``;
    * ``session`` — needs a registered instance;
    * ``rejoin`` — still handled for an evicted session (it is how one
      comes back).

    ``raises`` is the client's side of a server message that refuses a
    request: ``error.code`` (``None`` when absent) -> exception.
    """

    type: str
    fields: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    reply: str | None = None
    mutating: bool = False
    locked: bool = False
    session: bool = False
    rejoin: bool = False
    request: bool = True
    raises: Mapping[str | None, type[HarmonyError]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        # (name, optional?, converter), parsed once: convert() is per request.
        object.__setattr__(self, "_plan", tuple(
            (spec.rstrip("?"), spec.endswith("?"), convert)
            for spec, convert in self.fields.items()))

    def convert(self, message: dict[str, Any]) -> dict[str, Any]:
        """This row's fields of ``message``, each through its converter.

        An optional field that is absent or ``null`` is left out, so the
        handler's default applies.  A missing required field, or a value
        its converter rejects, is the sender's error:
        :class:`~repro.errors.ProtocolError` naming the field.
        """
        converted: dict[str, Any] = {}
        for name, optional, convert in self._plan:
            value = message.get(name)
            if value is None:
                if optional:
                    continue
                raise ProtocolError(
                    f"message {self.type!r} is missing field {name!r}")
            try:
                converted[name] = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ProtocolError(
                    f"message {self.type!r} field {name!r} is not a valid "
                    f"{convert.__name__}: {reprlib.repr(value)}") from exc
        return converted


def wal_frames(value: Any) -> list[str]:
    """The converter of ``repl_records.frames``: a list of ASCII lines,
    each a WAL record as framed on disk."""
    if not isinstance(value, list) or not all(
            isinstance(frame, str) and frame.isascii() for frame in value):
        raise TypeError("expected a list of ASCII strings")
    return value


def _server(msg_type: str, *fields: str,
            raises: Mapping[str | None, type[HarmonyError]] | None = None,
            ) -> MessageSpec:
    """A server -> client row; the client reads its fields as sent."""
    return MessageSpec(msg_type, dict.fromkeys(fields, _as_sent),
                       request=False, raises=raises or {})


_ROWS = (
    # Client -> server: the Figure 5 calls, then liveness, telemetry
    # and replication.
    MessageSpec("register", {"app_name": string, "use_interrupts?": boolean,
                             "resume_key?": string},
                reply="registered", mutating=True, locked=True, rejoin=True),
    MessageSpec("bundle_setup", {"rsl": string}, reply="bundle_ok",
                mutating=True, locked=True, session=True),
    MessageSpec("add_variable", {"name": string, "default?": _as_sent,
                                 "var_type?": _as_sent},
                reply="variable_added", session=True),
    MessageSpec("wait_for_update"),
    MessageSpec("report_metric", {"name": string, "value": float},
                mutating=True, session=True),
    MessageSpec("query_nodes", reply="node_list", session=True),
    MessageSpec(STATUS, {"prefix?": string, "max_traces?": int},
                reply=STATUS_REPORT),
    MessageSpec(HEARTBEAT, {"key?": _as_sent}, reply=HEARTBEAT_ACK,
                session=True),
    MessageSpec("end", reply="ended", mutating=True, locked=True,
                session=True),
    # Locked so a standby's catch-up snapshot cannot race an append
    # (appends run under controller_lock).
    MessageSpec(REPL_HELLO, {"standby_id": string, "last_seq": int,
                             "last_crc?": string, "last_term?": int},
                reply=REPL_RECORDS, locked=True),
    MessageSpec(REPL_ACK, {"standby_id": string, "seq": int}),
    # Server -> client.
    _server("registered", "instance_id", "key", "resumed"),
    _server("bundle_ok", "bundle_name", "option", "variables", "placements"),
    _server("variable_added", "name", "value"),
    _server(VARIABLE_UPDATE, "updates"),
    _server("node_list", "nodes", "rsl"),
    _server(STATUS_REPORT, "metrics", "histograms", "decision_traces",
            "optimizer", "server", "replication"),
    _server(HEARTBEAT_ACK, "lease_expires_at?"),
    _server(LEASE_EXPIRED, "message", raises={None: LeaseExpiredError}),
    _server("ended"),
    _server(ERROR, "message", "code?", raises={
        None: HarmonyError,
        CONTROLLER_BUSY: ControllerBusyError}),
    _server(CONTROLLER_MOVED, "message", "term", "leader?",
            raises={None: ControllerMovedError}),
    # The replication stream, read by a standby: typed, so a malformed
    # message is a ProtocolError the standby resyncs on.
    MessageSpec(REPL_RECORDS, {"term": int, "frames": wal_frames},
                request=False),
    MessageSpec(REPL_SNAPSHOT, {"term": int, "last_seq": int, "crc": string,
                                "state": string, "reset?": boolean},
                request=False),
)

#: The message table: type -> :class:`MessageSpec`.
MESSAGES: dict[str, MessageSpec] = {row.type: row for row in _ROWS}

CLIENT_TYPES = frozenset(t for t, row in MESSAGES.items() if row.request)
SERVER_TYPES = frozenset(MESSAGES) - CLIENT_TYPES

#: Requests that change controller state — refused (with a
#: ``controller_moved`` redirect) by a standby.
MUTATING_TYPES = frozenset(t for t, row in MESSAGES.items() if row.mutating)

#: Requests handled under ``controller_lock``.
LOCKED_TYPES = frozenset(t for t, row in MESSAGES.items() if row.locked)


def make_message(msg_type: str, **fields: Any) -> dict[str, Any]:
    """Build a protocol message dict, validating the type tag."""
    if msg_type not in MESSAGES:
        raise ProtocolError(f"unknown message type {msg_type!r}")
    message = {"type": msg_type}
    message.update(fields)
    return message


def require_field(message: dict[str, Any], field: str) -> Any:
    """Fetch a mandatory field, raising :class:`ProtocolError` if absent."""
    if field not in message:
        raise ProtocolError(
            f"message {message.get('type', '?')!r} is missing "
            f"field {field!r}")
    return message[field]


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize a message to a length-prefixed JSON frame."""
    if "type" not in message:
        raise ProtocolError("message has no 'type' field")
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder: feed bytes, pop complete messages.

    Handles partial frames across ``feed`` calls, so it can sit directly on
    a socket's ``recv`` loop.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Consume ``data``; return every now-complete message in order."""
        self._buffer.extend(data)
        messages: list[dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds limit")
            if len(self._buffer) < _HEADER.size + length:
                return messages
            payload = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"malformed frame: {exc}") from exc
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(
                    "frame is not an object with a 'type' field")
            messages.append(message)

    def pending_bytes(self) -> int:
        return len(self._buffer)

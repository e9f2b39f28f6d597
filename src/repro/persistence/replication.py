"""Primary/standby replication: WAL shipping, fencing, and promotion.

PR 4 made the controller durable across restarts; this module makes it
survivable without one.  A **primary** (a normal durable controller)
streams every WAL record it appends — the exact CRC-framed bytes it
wrote to disk — to one or more **standbys**, which persist the records
under the primary's sequence numbers and replay them against a hot
controller with the optimizer held inert (the same result-sourced
replay as crash recovery, just continuous).  A standby that joins late
or falls behind the primary's compaction horizon is caught up from the
newest snapshot, then follows the tail.

Failover is **term-fenced**.  A :class:`FencingStore` is a tiny shared
record (a file on storage both sides can reach) holding a monotonically
increasing ``term``, the current holder, and a lease deadline.  The
primary acquires the lease when replication is enabled and renews it
while alive; a standby may only :meth:`~ReplicationStandby.promote`
once that lease has expired, which bumps the term.  Terms are journaled
in the WAL (``term`` records) and stamped on every wire reply, so a
deposed primary that comes back compares its journaled term against the
fencing record, sees it lost, and demotes to a redirecting standby
instead of split-braining — stale-term mutations are refused with the
typed, retryable ``controller_moved`` redirect.

Safety invariants:

* **Ship-after-durable**: records are shipped from the journal's
  append observer, which runs after the local fsync — a standby can
  never hold a record the primary might lose.
* **Verify end-to-end**: frames travel as the on-disk bytes and the
  standby re-runs the same length/CRC verification before applying.
* **Gaps never guess**: a missing or damaged frame makes the standby
  re-hello from its last applied sequence number; it never applies
  around a hole (mirroring :func:`~repro.persistence.wal.scan_wal`).
* **Histories must match before a tail is served**: ``repl_hello``
  carries the frame CRC of the standby's newest record, and the primary
  serves the tail only when that record is in its own history.  A
  divergent suffix — a deposed primary's durable-but-never-shipped
  record under a sequence number the new history reused — is answered
  with a forced snapshot ``reset`` that truncates it, never silently
  kept.
* **Terms are durable before they are served**: promotion journals the
  new term before the controller answers as primary.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix: best-effort fencing
    fcntl = None  # type: ignore[assignment]

from repro.api.protocol import (
    REPL_ACK,
    REPL_HELLO,
    REPL_RECORDS,
    REPL_SNAPSHOT,
    make_message,
    require_field,
)
from repro.api.transport import Transport
from repro.errors import (
    ControllerBusyError,
    ProtocolError,
    RecoveryError,
    ReplicationError,
    TransportError,
)
from repro.metrics.histogram import COUNT_BOUNDS
from repro.obs.flightrec import EVENT_PROMOTION, EVENT_REPLICATION
from repro.persistence import codec
from repro.persistence.journal import DurabilityJournal
from repro.persistence.recovery import (
    _apply_record,
    _base_state,
    _ReplayPolicy,
)
from repro.persistence.snapshot import (
    latest_snapshot,
    snapshot_files,
    write_snapshot,
)
from repro.persistence.wal import (
    WalRecord,
    WriteAheadLog,
    decode_frame,
    encode_record,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController

__all__ = ["FencingStore", "FencingRecord", "ReplicationPrimary",
           "ReplicationStandby"]


# --------------------------------------------------------------------------
# Fencing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FencingRecord:
    """One read of the shared fencing state."""

    term: int
    holder: str
    address: str | None
    lease_expires_at: float
    lease_seconds: float


_EMPTY = FencingRecord(term=0, holder="", address=None,
                       lease_expires_at=0.0, lease_seconds=0.0)


class FencingStore:
    """The shared election record: one term, one holder, one lease.

    Stored as a single JSON file written atomically (tmp + fsync +
    rename), so readers always see a complete record.  The ``clock`` is
    injectable — the failover tests drive lease expiry deterministically
    instead of sleeping.  It defaults to ``time.monotonic``, matching
    the primary/standby machinery: a wall clock here would let an NTP
    step prematurely lapse the lease (electing two primaries) or
    indefinitely extend it (electing none).

    Cross-process caveat: ``time.monotonic`` has an arbitrary per-boot,
    per-OS epoch, so the absolute ``lease_expires_at`` stored in the
    record is only meaningful to processes sharing that epoch — i.e.
    processes on the *same machine*, which is also what a same-host
    flock requires.  A multi-host deployment must inject a shared clock
    (and a real coordination service); see docs/replication.md.

    This is deliberately the simplest thing that fences: both sides must
    be able to reach the same file (shared storage), exactly like the
    classic "STONITH via shared disk" arrangement.  A consensus service
    could replace it without touching the protocol above it.

    :meth:`acquire` and :meth:`renew` are read-modify-write cycles, so
    they serialize on an ``flock`` over a sibling ``.lock`` file — two
    standbys that both watched the same lease expire contend on the
    lock, and the loser re-reads a record that already moved to the
    winner's term and is refused.  Without this, both could write
    ``term+1`` naming themselves holder and split-brain.
    """

    def __init__(self, path: str,
                 clock: Callable[[], float] = time.monotonic):
        self.path = path
        self.clock = clock

    @contextlib.contextmanager
    def _exclusive(self):
        """Serialize read-modify-write cycles across processes."""
        if fcntl is None:  # pragma: no cover - non-posix: best effort
            yield
            return
        with open(self.path + ".lock", "a+", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def read(self) -> FencingRecord:
        try:
            with open(self.path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except (FileNotFoundError, ValueError):
            return _EMPTY
        try:
            return FencingRecord(
                term=int(raw["term"]), holder=str(raw["holder"]),
                address=raw.get("address"),
                lease_expires_at=float(raw["lease_expires_at"]),
                lease_seconds=float(raw.get("lease_seconds", 0.0)))
        except (KeyError, TypeError, ValueError):
            return _EMPTY

    def expired(self, now: float | None = None) -> bool:
        """Whether the current holder's lease has lapsed."""
        record = self.read()
        if record.term == 0:
            return True
        now = self.clock() if now is None else now
        return now >= record.lease_expires_at

    def acquire(self, holder: str, lease_seconds: float = 30.0,
                address: str | None = None,
                now: float | None = None) -> int:
        """Take the lease, bumping the term; returns the new term.

        Refused (:class:`~repro.errors.ReplicationError`) while another
        holder's lease is still live — a standby cannot depose a
        healthy primary.  Re-acquiring one's own live lease is allowed
        (a restarting primary whose lease has not yet lapsed) and still
        bumps the term, so every acquisition is a distinct epoch.
        """
        with self._exclusive():
            record = self.read()
            now = self.clock() if now is None else now
            if record.term > 0 and record.holder != holder \
                    and now < record.lease_expires_at:
                raise ReplicationError(
                    f"fencing lease held by {record.holder!r} (term "
                    f"{record.term}) for another "
                    f"{record.lease_expires_at - now:.1f}s")
            term = record.term + 1
            self._write(FencingRecord(
                term=term, holder=holder, address=address,
                lease_expires_at=now + lease_seconds,
                lease_seconds=lease_seconds))
            return term

    def renew(self, holder: str, term: int,
              now: float | None = None) -> None:
        """Extend the lease; refuses if the record moved to a new term.

        The refusal is the deposed primary's signal: someone else holds
        a higher term, so this process must demote, not keep serving.
        """
        with self._exclusive():
            record = self.read()
            if record.term != term or record.holder != holder:
                raise ReplicationError(
                    f"cannot renew term {term} as {holder!r}: fencing "
                    f"record is at term {record.term} held by "
                    f"{record.holder!r}")
            now = self.clock() if now is None else now
            self._write(FencingRecord(
                term=record.term, holder=record.holder,
                address=record.address,
                lease_expires_at=now + record.lease_seconds,
                lease_seconds=record.lease_seconds))

    def _write(self, record: FencingRecord) -> None:
        payload = json.dumps({
            "term": record.term, "holder": record.holder,
            "address": record.address,
            "lease_expires_at": record.lease_expires_at,
            "lease_seconds": record.lease_seconds,
        }, sort_keys=True)
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)


# --------------------------------------------------------------------------
# Primary side: ship the WAL
# --------------------------------------------------------------------------

@dataclass
class _StandbyLink:
    """The primary's view of one connected standby."""

    standby_id: str
    transport: Transport
    acked_seq: int
    shipped_at: dict[int, float] = field(default_factory=dict)


def _frame_text(record: WalRecord) -> str:
    """A record as its on-disk framed line (sans newline), wire-safe."""
    return (record.frame or encode_record(record))[:-1].decode("ascii")


def _frame_crc(record: WalRecord) -> str:
    """The CRC32 of a record's full on-disk frame (the log-match token)."""
    return f"{zlib.crc32(record.frame):08x}"


def _state_message(term: int, last_seq: int, state: dict[str, Any],
                   reset: bool = False) -> dict[str, Any]:
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    message = make_message(
        REPL_SNAPSHOT, term=term, last_seq=int(last_seq),
        crc=f"{zlib.crc32(text.encode('utf-8')):08x}", state=text)
    if reset:
        # The receiver must discard its (divergent) log and adopt this
        # state even if its own sequence number is at or past last_seq.
        message["reset"] = True
    return message


class ReplicationPrimary:
    """Streams an attached journal's appends to connected standbys.

    Construct with the primary's (attached) journal and controller, then
    :meth:`install` taps the journal's append and snapshot observers.
    The server routes ``repl_hello``/``repl_ack`` messages here; outside
    a server, call :meth:`handle_hello`/:meth:`handle_ack` directly
    (under whatever lock serializes controller mutations — shipping
    happens on the appending thread, so hello must not race an append).

    A standby whose transport fails is dropped; it is expected to
    reconnect and re-hello from its last durable sequence number.
    Shipping runs on the appending thread, so each link's transport is
    armed with ``ship_timeout`` at hello time — a standby whose socket
    stalls (peer stopped reading) is dropped after that bound instead of
    wedging primary mutations indefinitely.
    ``replication.lag_records`` (a count histogram) is observed on every
    ship with each live standby's ack backlog, and
    ``replication.ack_seconds`` with the ship→ack round trip.
    """

    def __init__(self, journal: DurabilityJournal,
                 controller: "AdaptationController",
                 clock: Callable[[], float] = time.monotonic,
                 ship_timeout: float | None = 5.0):
        self.journal = journal
        self.controller = controller
        self.clock = clock
        self.ship_timeout = ship_timeout
        self._links: dict[str, _StandbyLink] = {}
        self._lock = threading.Lock()
        metrics = controller.metrics
        self._lag_hist = metrics.histogram("replication.lag_records",
                                           bounds=COUNT_BOUNDS)
        self._ack_hist = metrics.histogram("replication.ack_seconds")
        self._installed = False

    def install(self) -> "ReplicationPrimary":
        """Tap the journal: every durable append ships, snapshots offer."""
        if not self._installed:
            self.journal.add_append_observer(self._on_append)
            self.journal.add_snapshot_observer(self._on_snapshot)
            self._installed = True
        return self

    # -- wire entry points --------------------------------------------------

    def handle_hello(self, transport: Transport,
                     message: dict[str, Any]) -> None:
        """Adopt (or re-adopt) a standby and send whatever it is missing.

        First the log-matching check: the hello carries the frame CRC
        of the standby's newest record (``last_crc``), and the tail is
        served only when that exact record is in this primary's
        history.  A mismatch — a deposed primary rejoining with a
        durable record that never shipped before the new history reused
        its sequence number — is answered with a forced snapshot
        ``reset`` so the standby truncates its divergent suffix instead
        of silently keeping it under the new tail.

        Then the catch-up decision: if the standby's next needed record
        is still in the WAL, ship the tail; if it fell behind the
        compaction horizon, ship the newest snapshot first (the
        compaction invariant — the WAL is only compacted to the oldest
        *retained* snapshot — guarantees one covers the gap), then the
        tail after it.
        """
        standby_id = str(require_field(message, "standby_id"))
        last_seq = int(require_field(message, "last_seq"))
        transport.set_send_timeout(self.ship_timeout)
        records = self.journal.wal.records()
        need_from = last_seq + 1
        horizon = records[0].seq if records else self.journal.wal.next_seq
        replies: list[dict[str, Any]] = []
        diverged = self._diverged(last_seq, message.get("last_crc"),
                                  records)
        if diverged is not None:
            self.controller.metrics.increment(
                "replication.divergent_rejoins", self.controller.now)
            self._record_event(
                "standby_diverged", standby_id=standby_id,
                at_seq=last_seq,
                standby_term=int(message.get("last_term", 0)),
                reason=diverged)
            snap_seq, state = self._reset_snapshot(standby_id, last_seq)
            replies.append(_state_message(self.term, snap_seq, state,
                                          reset=True))
            need_from = snap_seq + 1
        elif need_from < horizon:
            snapshot = latest_snapshot(self.journal.directory)
            if snapshot is None:
                raise ReplicationError(
                    f"standby {standby_id!r} needs seq {need_from} but "
                    f"the WAL starts at {horizon} and no snapshot "
                    f"verifies")
            snap_seq, state, _path = snapshot
            replies.append(_state_message(self.term, snap_seq, state))
            need_from = snap_seq + 1
        frames = [_frame_text(r) for r in records if r.seq >= need_from]
        # An empty frame list still answers the hello: it tells the
        # standby it is current (and carries the primary's term).
        replies.append(make_message(REPL_RECORDS, term=self.term,
                                    frames=frames))
        link = _StandbyLink(standby_id=standby_id, transport=transport,
                            acked_seq=last_seq)
        with self._lock:
            self._links[standby_id] = link
        self._record_event("standby_joined", standby_id=standby_id,
                           from_seq=last_seq)
        for reply in replies:
            self._ship(link, reply)

    def handle_ack(self, message: dict[str, Any]) -> None:
        standby_id = str(require_field(message, "standby_id"))
        seq = int(require_field(message, "seq"))
        shipped_at: float | None = None
        with self._lock:
            link = self._links.get(standby_id)
            if link is None:
                return
            link.acked_seq = max(link.acked_seq, seq)
            for shipped in [s for s in link.shipped_at if s <= seq]:
                shipped_at = link.shipped_at.pop(shipped)
        if shipped_at is not None:
            self._ack_hist.observe(max(0.0, self.clock() - shipped_at))
        self.controller.metrics.increment("replication.acks",
                                          self.controller.now)

    # -- log matching -------------------------------------------------------

    def _diverged(self, last_seq: int, last_crc: Any,
                  records: list[WalRecord]) -> str | None:
        """Why the standby's newest record is not in this history.

        ``None`` means the histories match (or the hello carried no
        ``last_crc`` to check — an empty standby, or one that just
        adopted a snapshot and holds no local records that could
        diverge).
        """
        if last_crc is None or last_seq <= 0:
            return None
        newest = self.journal.wal.last_seq
        if last_seq > newest:
            return (f"standby holds seq {last_seq} beyond this "
                    f"history's newest {newest}")
        mine = next((r for r in records if r.seq == last_seq), None)
        if mine is None:
            # Compacted away: the match cannot be verified, and an
            # unverified suffix must not be built upon.
            return (f"seq {last_seq} is below the compaction horizon "
                    f"and cannot be verified")
        if _frame_crc(mine) != str(last_crc):
            return f"frame CRC mismatch at seq {last_seq}"
        return None

    def _reset_snapshot(self, standby_id: str,
                        last_seq: int) -> tuple[int, dict[str, Any]]:
        """The snapshot a divergent standby is reset from (forced fresh
        if none exists yet — the caller holds the controller lock)."""
        snapshot = latest_snapshot(self.journal.directory)
        if snapshot is None:
            self.journal.snapshot_now()
            snapshot = latest_snapshot(self.journal.directory)
        if snapshot is None:
            raise ReplicationError(
                f"standby {standby_id!r} diverged at seq {last_seq} "
                f"but no snapshot verifies to reset it from")
        snap_seq, state, _path = snapshot
        return snap_seq, state

    # -- journal observers --------------------------------------------------

    def _on_append(self, record: WalRecord) -> None:
        message = make_message(REPL_RECORDS, term=self.term,
                               frames=[_frame_text(record)])
        now = self.clock()
        with self._lock:
            links = list(self._links.values())
            for link in links:
                link.shipped_at[record.seq] = now
        for link in links:
            self._lag_hist.observe(float(record.seq - link.acked_seq))
            self._ship(link, message)

    def _on_snapshot(self, last_seq: int, state: dict[str, Any]) -> None:
        """Offer a fresh snapshot to every standby still behind it."""
        message = _state_message(self.term, last_seq, state)
        with self._lock:
            behind = [link for link in self._links.values()
                      if link.acked_seq < last_seq]
        for link in behind:
            self._ship(link, message)

    # -- plumbing -----------------------------------------------------------

    @property
    def term(self) -> int:
        return self.controller.term

    def last_seq(self) -> int:
        return self.journal.wal.last_seq

    def standby_count(self) -> int:
        with self._lock:
            return len(self._links)

    def link_transports(self) -> tuple[Transport, ...]:
        """The live shipping transports (for ordered server teardown)."""
        with self._lock:
            return tuple(link.transport for link in self._links.values())

    def status(self) -> list[dict[str, Any]]:
        """Per-standby replication state for the STATUS payload."""
        last = self.last_seq()
        with self._lock:
            return [{"standby_id": link.standby_id,
                     "acked_seq": link.acked_seq,
                     "lag_records": max(0, last - link.acked_seq)}
                    for link in self._links.values()]

    def drop(self, standby_id: str) -> None:
        with self._lock:
            self._links.pop(standby_id, None)

    def _ship(self, link: _StandbyLink, message: dict[str, Any]) -> None:
        """Send one message; a failed or stalled link is dropped.

        Shipping runs on the mutating thread, so the block is bounded:
        the link's transport was armed with ``ship_timeout`` at hello
        time, and a send that exceeds it fails like any other transport
        error — the link is dropped and the standby re-hellos."""
        try:
            link.transport.send(message)
        except (TransportError, ControllerBusyError, ProtocolError,
                OSError):
            # The expected shipping failures: a dead/stalled link, a
            # backpressured write queue, an oversized frame, a raw
            # socket error.  Anything else is a programming error — let
            # it unwind (flight-recorded) instead of silently dropping
            # the standby.
            with self._lock:
                self._links.pop(link.standby_id, None)
            self.controller.metrics.increment("replication.ship_errors",
                                              self.controller.now)
            self._record_event("standby_dropped",
                               standby_id=link.standby_id)
        except Exception as exc:
            self._record_event("ship_error", standby_id=link.standby_id,
                               error=type(exc).__name__,
                               message=str(exc))
            raise

    def _record_event(self, detail: str, **fields: Any) -> None:
        recorder = getattr(self.controller, "flight_recorder", None)
        if recorder is not None:
            recorder.record(EVENT_REPLICATION, detail=detail,
                            term=self.term, **fields)


# --------------------------------------------------------------------------
# Standby side: follow, persist, apply — and promote
# --------------------------------------------------------------------------

class ReplicationStandby:
    """A hot follower: replicated WAL on its own disk, live controller.

    The standby owns a durability ``directory`` exactly like a primary's
    (``wal.log`` + snapshots) and keeps a controller current by applying
    each shipped record the way crash recovery replays a tail: policy
    inert, clock advanced to the record's timestamp, result re-applied
    and verified.  Restarting a standby restores from its own directory
    (newest valid snapshot + tail) and re-hellos from there, so an
    outage costs one catch-up, not a full resync.

    ``controller_factory`` builds the controller from a
    :class:`~repro.cluster.Cluster` — supply the same collaborators
    (policy, objective, models) as the primary so the replay
    verification holds and the controller is fit to serve after
    promotion.  ``on_controller`` fires whenever the standby's
    controller object is (re)built — a hosting server uses it to adopt
    the new instance.

    :meth:`promote` is the failover: acquire the fencing lease (refused
    while the primary's lease is live), journal the new term, restore
    the real decision policy, re-attach the journal for writing, and
    reconfigure any bundles the replicated history left stranded.  The
    returned controller serves exactly the state the primary had made
    durable — including every ``resume_key`` session, which rejoining
    clients replay precisely as they would against a restarted primary.
    """

    def __init__(self, directory: str, standby_id: str,
                 fencing: FencingStore | None = None,
                 controller_factory: Callable[..., Any] | None = None,
                 model_registry: dict[str, Any] | None = None,
                 snapshot_every: int = 64,
                 keep_snapshots: int = 2,
                 fsync: str = "always",
                 address: str | None = None,
                 lease_seconds: float = 30.0,
                 on_controller: Callable[[Any], None] | None = None,
                 on_stream_error: Callable[[dict[str, Any]], None]
                 | None = None):
        self.directory = directory
        self.standby_id = standby_id
        self.fencing = fencing
        self.address = address
        self.lease_seconds = lease_seconds
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self.fsync = fsync
        self.on_controller = on_controller
        self.on_stream_error = on_stream_error
        self._controller_factory = controller_factory
        self.journal = DurabilityJournal(
            directory, snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots, fsync=fsync,
            model_registry=model_registry)
        self.controller: "AdaptationController | None" = None
        self._real_policy = None
        self.term = 0              #: highest term observed on the stream
        self.last_seq = 0          #: highest contiguously applied seq
        self.promoted = False
        self.records_applied = 0
        self.resyncs = 0
        self.stream_errors = 0     #: unexpected replies (errors) seen
        self.divergence_resets = 0  #: forced resets of a divergent log
        self.transport: Transport | None = None
        self._lock = threading.RLock()
        self._applied_since_snapshot = 0
        self._restore_local()

    # -- lifecycle ----------------------------------------------------------

    def follow(self, transport: Transport) -> None:
        """Start (or resume) following a primary over ``transport``."""
        with self._lock:
            if self.promoted:
                raise ReplicationError(
                    f"standby {self.standby_id!r} was promoted; it no "
                    f"longer follows")
            self.transport = transport
        transport.set_receiver(self.on_message)
        transport.send(self._hello_message())

    def stop(self) -> None:
        with self._lock:
            transport, self.transport = self.transport, None
        if transport is not None:
            try:
                transport.close()
            except TransportError:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        self.stop()
        if not self.promoted:
            self.journal.wal.close()

    # -- the replication stream ---------------------------------------------

    def on_message(self, message: dict[str, Any]) -> None:
        """Transport receiver for the primary's stream."""
        msg_type = message.get("type")
        if msg_type == REPL_RECORDS:
            self._handle_records(message)
        elif msg_type == REPL_SNAPSHOT:
            self._handle_snapshot(message)
        else:
            # An error reply to our hello (the primary could not serve
            # it) or a redirect from a server that is not primary: a
            # standby that silently dropped these would wait forever,
            # so count it, journal it, and tell the owner.
            self._handle_stream_error(message)

    def _hello_message(self) -> dict[str, Any]:
        """The (re)subscription message, carrying the log-match token.

        ``last_crc`` is the frame CRC of this standby's newest local
        record — the primary refuses to serve a tail on top of a record
        its history never contained.  Omitted when the local WAL holds
        no record at ``last_seq`` (a fresh standby, or one whose log
        was just reset by a snapshot): there is no local suffix that
        could diverge.
        """
        message = make_message(REPL_HELLO, standby_id=self.standby_id,
                               last_seq=self.last_seq)
        last = self.journal.wal.last_record
        if last is not None and last.seq == self.last_seq:
            message["last_crc"] = _frame_crc(last)
            message["last_term"] = self.term
        return message

    def _handle_stream_error(self, message: dict[str, Any]) -> None:
        self.stream_errors += 1
        if self.controller is not None:
            self.controller.metrics.increment("replication.stream_errors",
                                              self.controller.now)
        self._record_event(
            "stream_error", message_type=str(message.get("type")),
            error=str(message.get("message", "")))
        if self.on_stream_error is not None:
            self.on_stream_error(message)

    def _handle_records(self, message: dict[str, Any]) -> None:
        self._observe_term(int(message.get("term", 0)))
        with self._lock:
            if self.promoted:
                return
            for frame in message.get("frames", []):
                record = decode_frame(str(frame).encode("ascii"))
                if record is None:
                    self._request_resync("corrupt frame")
                    return
                if record.seq <= self.last_seq:
                    continue  # duplicate delivery: already durable here
                if self.controller is not None \
                        and record.seq != self.last_seq + 1:
                    self._request_resync(
                        f"gap: have seq {self.last_seq}, "
                        f"received {record.seq}")
                    return
                self._apply_one(record)
            self._send_ack()

    def _handle_snapshot(self, message: dict[str, Any]) -> None:
        self._observe_term(int(message.get("term", 0)))
        last_seq = int(require_field(message, "last_seq"))
        text = str(require_field(message, "state"))
        crc = str(require_field(message, "crc"))
        reset = bool(message.get("reset", False))
        if f"{zlib.crc32(text.encode('utf-8')):08x}" != crc:
            self._request_resync("snapshot checksum mismatch")
            return
        with self._lock:
            if self.promoted or (not reset and last_seq <= self.last_seq):
                # Already past this point (a periodic offer we outran).
                self._send_ack()
                return
            if reset:
                # Log-matching failed on rejoin: this standby's suffix
                # diverged from the authoritative history.  Adopting
                # the snapshot truncates it wholesale — the local WAL
                # is discarded, never built upon.
                self.divergence_resets += 1
                if self.controller is not None:
                    self.controller.metrics.increment(
                        "replication.divergence_resets",
                        self.controller.now)
                self._record_event("divergent_suffix_truncated",
                                   from_seq=self.last_seq,
                                   to_seq=last_seq)
            state = json.loads(text)
            self._adopt_snapshot(last_seq, state)
            self._send_ack()

    def _adopt_snapshot(self, last_seq: int, state: dict[str, Any]) -> None:
        """Replace local state wholesale with a primary snapshot."""
        # Reset the replicated WAL: records before the snapshot are
        # superseded, and the next shipped record follows last_seq.
        wal = self.journal.wal
        wal.close()
        try:
            os.remove(wal.path)
        except FileNotFoundError:  # pragma: no cover - defensive
            pass
        self.journal.wal = WriteAheadLog(wal.path, fsync=self.fsync)
        self.journal._bundle_rsl.clear()
        self.journal._model_names.clear()
        controller = self._build_controller(
            codec.cluster_from_topology(state["topology"]))
        codec.apply_state(controller, self.journal, state)
        write_snapshot(self.directory, last_seq, state)
        for stale in snapshot_files(self.directory)[self.keep_snapshots:]:
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - defensive
                pass
        self._applied_since_snapshot = 0
        self.last_seq = last_seq
        self._record_event("snapshot_adopted", seq=last_seq)

    def _apply_one(self, record: WalRecord) -> None:
        controller = self.controller
        if controller is None:
            if record.kind != "genesis":
                self._request_resync(
                    f"first record is {record.kind!r}, not genesis")
                raise ReplicationError(
                    f"standby {self.standby_id!r} received "
                    f"{record.kind!r} before any base state")
            controller = self._build_controller(
                codec.cluster_from_topology(record.data["topology"]))
        # Write-ahead on the standby too: persist, then apply.
        self.journal.wal.append_record(record)
        controller.cluster.kernel.advance_to(record.time)
        _apply_record(controller, self.journal, record)
        self.last_seq = record.seq
        self.records_applied += 1
        self._applied_since_snapshot += 1
        controller.metrics.increment("replication.records_applied",
                                     controller.now)
        self._maybe_snapshot()

    def _maybe_snapshot(self) -> None:
        """Local snapshot cadence, mirroring the journal's checkpoint."""
        if self.snapshot_every <= 0 \
                or self._applied_since_snapshot < self.snapshot_every:
            return
        self.journal.snapshot_now()
        self._applied_since_snapshot = 0

    def _request_resync(self, reason: str) -> None:
        """A gap or damaged frame: never apply around it — re-hello."""
        self.resyncs += 1
        if self.controller is not None:
            self.controller.metrics.increment(
                "replication.resyncs", self.controller.now)
        self._record_event("resync", reason=reason)
        transport = self.transport
        if transport is not None:
            try:
                transport.send(self._hello_message())
            except TransportError:
                pass  # the follower's owner reconnects and re-hellos

    def _send_ack(self) -> None:
        transport = self.transport
        if transport is not None:
            try:
                transport.send(make_message(
                    REPL_ACK, standby_id=self.standby_id,
                    seq=self.last_seq))
            except TransportError:
                pass

    def _observe_term(self, term: int) -> None:
        if term > self.term:
            self.term = term

    # -- promotion ----------------------------------------------------------

    def can_promote(self, now: float | None = None) -> bool:
        """Whether the fencing lease allows promotion right now."""
        if self.promoted or self.controller is None:
            return False
        if self.fencing is None:
            return True
        record = self.fencing.read()
        return record.holder == self.standby_id \
            or self.fencing.expired(now)

    def promote(self, now: float | None = None) -> "AdaptationController":
        """Become the primary: fence, journal the term, wake the policy.

        Raises :class:`~repro.errors.ReplicationError` while the current
        primary's fencing lease is still live.  On success the returned
        controller is attached to this standby's journal (appends
        continue the primary's sequence numbers on this disk), the real
        decision policy replaces the replay no-op, and stranded bundles
        — applications whose registration replicated but whose
        placement did not — are reconfigured.
        """
        with self._lock:
            if self.promoted:
                return self.controller  # type: ignore[return-value]
            controller = self.controller
            if controller is None:
                raise ReplicationError(
                    f"standby {self.standby_id!r} has no replicated "
                    f"state to promote")
            if self.fencing is not None:
                term = self.fencing.acquire(
                    self.standby_id, lease_seconds=self.lease_seconds,
                    address=self.address, now=now)
            else:
                term = self.term + 1
            # Durable before served: the term record hits this WAL
            # before any client sees the new primary.
            controller.policy = self._real_policy
            controller.journal = self.journal
            self.journal.record_term(term, self.standby_id)
            controller.note_term(term)
            self.promoted = True
            transport, self.transport = self.transport, None
        if transport is not None:
            try:
                transport.close()
            except TransportError:  # pragma: no cover - defensive
                pass
        stranded = controller.configure_stranded()
        controller.metrics.increment("replication.promotions",
                                     controller.now)
        recorder = getattr(controller, "flight_recorder", None)
        if recorder is not None:
            recorder.record(EVENT_PROMOTION, standby_id=self.standby_id,
                            term=term, last_seq=self.last_seq,
                            stranded_reconfigured=stranded)
        return controller

    # -- introspection ------------------------------------------------------

    def status(self) -> dict[str, Any]:
        return {"standby_id": self.standby_id,
                "role": "primary" if self.promoted else "standby",
                "term": self.term,
                "last_seq": self.last_seq,
                "records_applied": self.records_applied,
                "resyncs": self.resyncs,
                "stream_errors": self.stream_errors,
                "divergence_resets": self.divergence_resets}

    # -- construction helpers -----------------------------------------------

    def _build_controller(self, cluster) -> "AdaptationController":
        from repro.controller.controller import AdaptationController

        if self._controller_factory is not None:
            controller = self._controller_factory(cluster)
        else:
            controller = AdaptationController(cluster)
        # Hold the optimizer inert while following: the stream carries
        # results, and a standby that re-decides would double-apply.
        self._real_policy = controller.policy
        controller.policy = _ReplayPolicy()
        self.controller = controller
        # Wire the journal for snapshots (journal.controller) without
        # attach(): the standby's WAL is written by append_record only,
        # so controller.journal stays None until promotion.
        self.journal.controller = controller
        if self.on_controller is not None:
            self.on_controller(controller)
        return controller

    def _restore_local(self) -> None:
        """Rebuild from this standby's own directory (standby restart).

        The same base-plus-tail recovery as a primary restart, minus the
        side effects: no ``recovered`` record is appended (this WAL must
        contain exactly the primary's records) and the journal is not
        attached for writing.
        """
        records = self.journal.wal.records()
        skipped: list[str] = []
        snapshot = latest_snapshot(self.directory, skipped=skipped)
        if snapshot is None and not records:
            return  # a brand-new standby: wait for the stream
        base_seq, cluster, state = _base_state(
            self.directory, snapshot, records, skipped)
        controller = self._build_controller(cluster)
        if state is not None:
            codec.apply_state(controller, self.journal, state)
        for record in records:
            if record.seq <= base_seq:
                continue
            controller.cluster.kernel.advance_to(record.time)
            _apply_record(controller, self.journal, record)
            self.records_applied += 1
        self.last_seq = records[-1].seq if records else base_seq
        self.term = controller.term
        self._record_event("restored", seq=self.last_seq)

    def _record_event(self, detail: str, **fields: Any) -> None:
        controller = self.controller
        recorder = getattr(controller, "flight_recorder", None) \
            if controller is not None else None
        if recorder is not None:
            recorder.record(EVENT_REPLICATION, detail=detail,
                            standby_id=self.standby_id, **fields)

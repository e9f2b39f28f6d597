"""Exception hierarchy shared across the Harmony reproduction.

Every package raises subclasses of :class:`HarmonyError` so that callers can
catch the whole family with a single ``except`` clause while still being able
to discriminate parse errors from allocation failures, protocol violations,
and so on.
"""

from __future__ import annotations


class HarmonyError(Exception):
    """Base class for all errors raised by this library."""


class RslError(HarmonyError):
    """Base class for errors in the resource specification language."""


class RslSyntaxError(RslError):
    """The RSL text could not be tokenized or parsed.

    Carries the ``line`` and ``column`` (1-based) of the offending input when
    they are known, so callers can point users at the problem.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class RslSemanticError(RslError):
    """The RSL parsed but describes something meaningless.

    Examples: a ``link`` naming a node that no option defines, a bundle with
    zero options, a ``variable`` tag with an empty value list.
    """


class ExpressionError(RslError):
    """An RSL parametric expression failed to parse or evaluate."""


class NamespaceError(HarmonyError):
    """A namespace path was malformed or did not resolve."""


class AllocationError(HarmonyError):
    """The resource matcher could not satisfy a set of requirements."""


class PredictionError(HarmonyError):
    """A performance model could not produce an estimate."""


class ControllerError(HarmonyError):
    """The adaptation controller was asked to do something inconsistent."""


class ProtocolError(HarmonyError):
    """A malformed or out-of-order message arrived on a transport."""


class TransportError(HarmonyError):
    """The underlying transport (socket or in-process queue) failed."""


class RequestTimeoutError(TransportError):
    """A single request/response round trip exceeded its timeout.

    Raised per attempt; the client's :class:`~repro.api.retry.RetryPolicy`
    decides whether the attempt is retried.  Carries the offending message
    type and the timeout that was applied.
    """

    def __init__(self, msg_type: str, timeout_seconds: float):
        super().__init__(
            f"no response to {msg_type!r} within {timeout_seconds:g}s")
        self.msg_type = msg_type
        self.timeout_seconds = timeout_seconds


class RetryExhaustedError(TransportError):
    """Every attempt allowed by the retry policy failed.

    ``__cause__`` is the final attempt's underlying error.
    """

    def __init__(self, msg_type: str, attempts: int):
        super().__init__(
            f"request {msg_type!r} failed after {attempts} attempt(s)")
        self.msg_type = msg_type
        self.attempts = attempts


class LeaseExpiredError(HarmonyError):
    """The server evicted this session after its lease lapsed.

    The application's registration, bundles, and allocations are gone
    server-side; call :meth:`~repro.api.client.HarmonyClient.rejoin` to
    re-register and replay the session.
    """


class WalCorruptionError(HarmonyError):
    """The write-ahead log contains a record that cannot be trusted.

    Raised when a checksum mismatch, malformed frame, or sequence-number
    gap appears *before* the end of the log — a torn tail (the common
    crash artifact) is silently truncated instead, because everything
    before it is intact.  Recovery never guesses past a corrupt record.
    """


class SnapshotCorruptionError(WalCorruptionError):
    """No usable snapshot exists but the WAL was compacted past genesis.

    Also raised per-file when a snapshot's envelope, checksum, or state
    digest does not verify; recovery falls back to the next older
    snapshot and only propagates this when no valid base state remains.
    """


class RecoveryError(HarmonyError):
    """Replaying the durability log did not reproduce the logged state.

    The WAL records each decision's resulting objective; if re-applying a
    record yields a different value (or a snapshot's self-digest fails),
    the replay is non-deterministic or the log lies — recovery stops
    rather than serving wrong placements.
    """


class ControllerBusyError(HarmonyError):
    """The server's admission queue is full; try again shortly.

    Raised client-side when a ``register``/``bundle_setup`` is refused
    with the wire code ``controller_busy``: more admissions are already
    waiting on the optimizer than the server's bounded pending-register
    queue allows.  The condition is transient — the client's
    :class:`~repro.api.retry.RetryPolicy` retries it with backoff like
    any other recoverable failure.
    """


class ControllerMovedError(HarmonyError):
    """This server is not the primary; the request belongs elsewhere.

    Raised client-side when a mutation is answered with the
    ``controller_moved`` redirect: the server is a standby (or a deposed
    primary fenced off by a higher term).  ``leader`` carries the
    ``host:port`` hint from the fencing record when one is known, and
    ``term`` the refusing server's term.  Typed and retryable — the
    client's retry loop reconnects to the hinted leader (or walks its
    static failover list) and replays the session there.
    """

    def __init__(self, message: str, leader: str | None, term: int):
        super().__init__(message)
        self.leader = leader
        self.term = term


class ReplicationError(HarmonyError):
    """The primary/standby replication stream is inconsistent.

    Raised for fencing violations (acquiring a lease someone else still
    holds, renewing with a stale term) and for replication-stream damage
    a standby cannot repair locally (it re-requests from its last
    acknowledged sequence number instead of applying a gap).
    """


class SimulationError(HarmonyError):
    """The discrete-event kernel detected an inconsistency."""


class DatabaseError(HarmonyError):
    """The mini relational engine detected an inconsistency."""

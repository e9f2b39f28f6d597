"""Retry, timeout, and backoff policy for client RPCs.

Every :class:`~repro.api.client.HarmonyClient` request goes through one
:class:`RetryPolicy`: the per-attempt timeout, the number of attempts, the
exponential backoff between them, and the heartbeat cadence all live here
instead of being scattered as magic numbers.  The policy object is immutable
and shared freely between clients.

The defaults match the old hardcoded behaviour (a single 30 s attempt) so
existing callers see no change unless they opt into retries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ProtocolError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a client treats slow, lost, and failed requests.

    * ``request_timeout_seconds`` — how long one attempt waits for its
      response before raising
      :class:`~repro.errors.RequestTimeoutError`.
    * ``max_attempts`` — total tries per request (1 = never retry).
    * ``backoff_initial_seconds`` / ``backoff_multiplier`` /
      ``backoff_max_seconds`` — the delay before retry *n* is
      ``initial * multiplier**(n-1)``, capped at the maximum.
    * ``backoff_jitter`` — fraction of each delay that is randomized
      (full jitter).  ``0`` keeps the schedule deterministic; ``1``
      draws uniformly from ``[0, delay]``.  Jitter is what stops a
      failed-over client herd from retrying in lockstep against the
      new primary.
    * ``heartbeat_interval_seconds`` — cadence of
      :meth:`~repro.api.client.HarmonyClient.start_heartbeats`; keep it
      well under the server's lease so several beats can be lost before
      eviction.
    """

    request_timeout_seconds: float = 30.0
    max_attempts: int = 1
    backoff_initial_seconds: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 5.0
    backoff_jitter: float = 0.0
    heartbeat_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.request_timeout_seconds <= 0:
            raise ProtocolError("request_timeout_seconds must be positive")
        if self.max_attempts < 1:
            raise ProtocolError("max_attempts must be at least 1")
        if self.backoff_initial_seconds < 0:
            raise ProtocolError("backoff_initial_seconds must be >= 0")
        if self.backoff_multiplier < 1:
            raise ProtocolError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ProtocolError("backoff_jitter must be in [0, 1]")
        if self.heartbeat_interval_seconds <= 0:
            raise ProtocolError("heartbeat_interval_seconds must be positive")

    def backoff_delay(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (1-based).

        This is the *deterministic* schedule — the upper bound the
        jittered delay is drawn against.
        """
        if retry_number < 1:
            raise ProtocolError("retry_number is 1-based")
        delay = (self.backoff_initial_seconds
                 * self.backoff_multiplier ** (retry_number - 1))
        return min(delay, self.backoff_max_seconds)

    def jittered_delay(self, retry_number: int) -> float:
        """The actual sleep before retry ``retry_number``: full jitter.

        The jittered fraction of the deterministic delay is replaced by
        a uniform draw over itself (AWS "full jitter"):
        ``delay*(1-jitter) + uniform(0, delay*jitter)``.  With
        ``backoff_jitter=0`` this is exactly :meth:`backoff_delay`; with
        ``1`` it is ``uniform(0, delay)`` — the spread that de-correlates
        a thundering herd of retrying clients.
        """
        delay = self.backoff_delay(retry_number)
        if self.backoff_jitter == 0.0 or delay == 0.0:
            return delay
        draw = random.uniform(0.0, delay * self.backoff_jitter)
        return delay * (1.0 - self.backoff_jitter) + draw


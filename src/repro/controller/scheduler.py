"""Coalescing reevaluation scheduler: batch the controller's sweeps.

The paper's centralized controller recomputes the global configuration on
every application event — register, bundle setup, end, metric change.
Serially that is fine; under a burst of N concurrent admissions it costs
N full greedy sweeps, each O(apps) model evaluations, all serialized
behind one lock.  Tuning systems only scale when evaluation work is
batched and decoupled from request handling (BestConfig; the multi-agent
distributed-tuning line of work), so this module decouples the two:

* Admission handlers **request** a reevaluation
  (:meth:`CoalescingScheduler.request`) instead of running one inline.
  The new bundle still gets its initial configuration synchronously —
  the client's ``bundle_ok`` answer never waits on a batch.
* Requests landing within ``coalesce_window`` seconds of each other
  merge into one pending batch; a batch runs once the window has been
  quiet, or unconditionally ``max_delay`` seconds after its *first*
  request — no application waits forever behind a chatty burst.
* Each completed batch advances an explicit **generation number**.  The
  generation keys the one-per-batch WAL record (``reevaluation_batch``)
  and is what callers wait on (:meth:`wait_for_generation`) to know
  their request was covered.  It does not order pushes: the API server
  stamps each staged reconfiguration with its own push sequence and
  drops a batch older than what a client already received.

Telemetry: every batch bumps ``controller.coalesced_batches`` and
reports ``controller.batch_size`` (requests merged into the batch), and
runs inside a ``scheduler.batch`` span.

Deterministic tests drive the scheduler synchronously with an injected
``clock`` and :meth:`run_pending` / :meth:`flush`; servers call
:meth:`start` for the threaded loop, passing the lock their optimizer
state is guarded by (batches then serialize against admissions exactly
like any other controller mutation — but heartbeats, status queries, and
metric reports do not).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, ContextManager

from repro.metrics.histogram import COUNT_BOUNDS
from repro.obs.flightrec import EVENT_BATCH
from repro.obs.trace import TraceContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController

__all__ = ["CoalescingScheduler"]

#: How many request reasons one WAL batch record lists verbatim; the
#: remainder is summarized as a count so a metric storm cannot bloat the
#: durability log.
MAX_JOURNALED_REASONS = 32

#: How many coalesced trace contexts one batch span links back to; a
#: metric storm must not grow the span's link list without bound.
MAX_BATCH_TRACE_LINKS = 32


class CoalescingScheduler:
    """Debounce reevaluation triggers into batched sweeps.

    ``coalesce_window`` — quiescence window: a batch runs once no new
    request has arrived for this long.
    ``max_delay`` — staleness bound: a batch runs at the latest this long
    after its first pending request, even under continuous new requests.
    ``clock`` — injectable time source (defaults to ``time.monotonic``).
    ``lock`` — context manager held while a batch runs; a server passes
    its controller lock so batches serialize with admissions.

    Constructing the scheduler attaches it to the controller
    (``controller.scheduler``), which re-routes the controller's inline
    reevaluation triggers through :meth:`request`.
    """

    def __init__(self, controller: "AdaptationController",
                 coalesce_window: float = 0.05,
                 max_delay: float = 0.5,
                 clock: Callable[[], float] | None = None,
                 lock: ContextManager | None = None):
        if coalesce_window < 0 or max_delay < coalesce_window:
            raise ValueError(
                "need 0 <= coalesce_window <= max_delay")
        self.controller = controller
        self.coalesce_window = coalesce_window
        self.max_delay = max_delay
        self.clock: Callable[[], float] = clock or time.monotonic
        self.reevaluation_lock: ContextManager = \
            lock if lock is not None else nullcontext()
        #: Completed-batch count; request N is covered once
        #: ``generation`` reaches the value :meth:`request` returned.
        self.generation = 0
        self.batches_run = 0
        self.requests_coalesced = 0
        self.last_batch_changes = 0
        self._pending: list[str] = []
        #: Trace contexts of the coalesced triggers (bounded): the batch
        #: span links back to every request it covered.
        self._pending_ctxs: list[TraceContext] = []
        metrics = controller.metrics
        # Always-on health distributions: how long batches take, and how
        # deep the backlog was when each trigger arrived.
        self._batch_hist = metrics.histogram("scheduler.batch_seconds")
        self._backlog_hist = metrics.histogram("scheduler.batch_backlog",
                                               bounds=COUNT_BOUNDS)
        #: Generation of the last batch *popped* for execution (it may
        #: still be running); requests arriving mid-batch are covered by
        #: the batch after it, not the one in flight.
        self._dispatched = 0
        self._first_request_at: float | None = None
        self._last_request_at: float | None = None
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stopping = False
        controller.scheduler = self

    # -- requesting -----------------------------------------------------------

    def request(self, reason: str,
                trace_ctx: TraceContext | None = None) -> int:
        """Note one reevaluation trigger; returns the covering generation.

        The returned generation is the batch that will include this
        request — pass it to :meth:`wait_for_generation` to block until
        the sweep has actually run.  ``trace_ctx`` (optional) links the
        batch span back to the request that triggered it.
        """
        with self._cond:
            now = self.clock()
            if not self._pending:
                self._first_request_at = now
            self._pending.append(reason)
            if trace_ctx is not None \
                    and len(self._pending_ctxs) < MAX_BATCH_TRACE_LINKS:
                self._pending_ctxs.append(trace_ctx)
            backlog = len(self._pending)
            self._last_request_at = now
            covering = self._dispatched + 1
            self._cond.notify_all()
        self._backlog_hist.observe(float(backlog))
        return covering

    @property
    def pending_requests(self) -> int:
        with self._cond:
            return len(self._pending)

    def due_at(self) -> float | None:
        """When the pending batch becomes runnable (None if none pending)."""
        with self._cond:
            return self._due_at_locked()

    def _due_at_locked(self) -> float | None:
        if not self._pending:
            return None
        assert self._first_request_at is not None
        assert self._last_request_at is not None
        return min(self._last_request_at + self.coalesce_window,
                   self._first_request_at + self.max_delay)

    # -- running --------------------------------------------------------------

    def run_pending(self, force: bool = False) -> bool:
        """Run the pending batch if it is due (or ``force``); returns
        whether a batch ran.  This is the synchronous drive used by
        deterministic tests and simulated deployments; the threaded loop
        calls it too."""
        with self._cond:
            if not self._pending:
                return False
            if not force:
                due = self._due_at_locked()
                if due is None or self.clock() < due:
                    return False
            reasons = self._pending
            ctxs = self._pending_ctxs
            self._pending = []
            self._pending_ctxs = []
            self._first_request_at = None
            self._last_request_at = None
            generation = self._dispatched + 1
            self._dispatched = generation
        self._run_batch(generation, reasons, ctxs)
        return True

    def flush(self) -> bool:
        """Force the pending batch (if any) to run now; returns whether
        one ran."""
        return self.run_pending(force=True)

    def _run_batch(self, generation: int, reasons: list[str],
                   ctxs: list[TraceContext] | None = None) -> None:
        controller = self.controller
        started = time.perf_counter()
        with self.reevaluation_lock:
            pruned_before = controller.stats.pruned_candidates
            with controller.tracer.span("scheduler.batch",
                                        generation=generation,
                                        size=len(reasons)) as span:
                if ctxs and controller.tracer.enabled:
                    # One batch covers many coalesced requests: adopt the
                    # first linked trace as this span's trace and record
                    # every parent as an explicit link.
                    span.trace_id = ctxs[0].trace_id
                    if span.parent_id is None:
                        span.parent_id = ctxs[0].span_id
                    span.set("links", [f"{ctx.trace_id}:{ctx.span_id}"
                                       for ctx in ctxs])
                changes = controller.reevaluate()
                span.set("changes", changes)
                pruned = controller.stats.pruned_candidates - pruned_before
                span.set("pruned_candidates", pruned)
            controller.metrics.increment("controller.coalesced_batches",
                                         controller.now)
            controller.metrics.report("controller.batch_size",
                                      controller.now, float(len(reasons)))
            if controller.journal is not None:
                controller.journal.record_reevaluation_batch(
                    generation, reasons, changes, pruned_candidates=pruned)
        elapsed = time.perf_counter() - started
        self._batch_hist.observe(elapsed)
        controller.flight_recorder.record(
            EVENT_BATCH, generation=generation, size=len(reasons),
            changes=changes, seconds=round(elapsed, 6))
        with self._cond:
            self.generation = generation
            self.batches_run += 1
            self.requests_coalesced += len(reasons)
            self.last_batch_changes = changes
            self._cond.notify_all()

    def wait_for_generation(self, generation: int,
                            timeout: float | None = None) -> bool:
        """Block until ``self.generation >= generation`` (threaded mode).

        Returns False on timeout.  Only useful while the background
        thread runs (or another thread drives :meth:`run_pending`).

        The deadline runs on the injected ``self.clock`` — a simulated
        clock drives the timeout deterministically.  The condition wait
        itself still slices real time: an injected clock cannot wake a
        sleeping thread, so the loop polls in short real-time slices
        and re-reads the injected clock on each pass.
        """
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            while self.generation < generation:
                remaining = None if deadline is None \
                    else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return False
                if remaining is None:
                    self._cond.wait(None)
                else:
                    self._cond.wait(min(remaining, 0.05))
        return True

    # -- the background loop --------------------------------------------------

    def start(self) -> None:
        """Run batches on a daemon thread as they become due."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stopping = False
        self._thread = threading.Thread(
            target=self._loop, name="harmony-coalescing-scheduler",
            daemon=True)
        self._thread.start()

    def stop(self, flush: bool = True) -> None:
        """Stop the thread (joined); ``flush`` drains any pending batch."""
        thread = self._thread
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if thread is not None and thread.is_alive() \
                and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None
        if flush:
            self.run_pending(force=True)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._pending:
                    self._cond.wait()
                if self._stopping:
                    return
                due = self._due_at_locked()
                now = self.clock()
                if due is not None and now < due:
                    # New requests re-notify; waking early just re-checks.
                    self._cond.wait(due - now)
                    continue
            self.run_pending()

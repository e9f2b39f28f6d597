"""Transactional candidate trials and delta prediction.

The optimizer's inner loop scores hundreds of candidate configurations per
decision.  The original implementation paid for each score twice over: a
full ``SystemView.copy()`` to build the trial state, then a from-scratch
``predict_all`` over *every* placed application.  Both costs grow linearly
with system size, making each candidate O(apps) and the whole greedy pass
roughly O(apps**2) per new application.

This module removes both:

* :class:`ViewTrial` — a mutate-and-rollback context.  Trial placements
  are applied to the *live* view; every mutation returns a
  :class:`~repro.prediction.contention.PlacementToken` which the trial
  replays in reverse on exit.  No copies, and the tokens double as an
  exact description of what changed.

* :class:`TrialEngine` — delta prediction.  The engine caches the
  predictions of the live view (keyed by ``SystemView.version``) and, for
  a trial, recomputes only the *dirty set*: the mutated applications, the
  applications whose placements share a node or link with the mutation
  (``SystemView.apps_affected_by`` over the tokens' footprints), and any
  application whose performance model the engine cannot see through
  (custom callables).  Everything else reuses its cached value — which
  the dirty-set contract guarantees is identical to what a full
  recompute would produce, bit for bit, since a prediction is a function
  of the view's state and not of the trials that ran before it.  A trial
  dictionary is the base copied with the dirty set written over it, so
  its order is not the view's; objectives sum with ``fsum`` and never
  read it.

* **Records** — the engine stamps every host and link a commit writes
  or holds memory on, or whose load or availability changes, and moves
  an :attr:`TrialEngine.epoch` on every mutation it did not see.
  :meth:`TrialEngine.reading` records what one evaluation's recomputed
  predictions read (:class:`ReadSet`), and :meth:`TrialEngine.cover_scan`
  what its first-fit matches examined.  One rule, checked before the
  match (:meth:`TrialEngine.holds`): a record is valid while no key it
  covers is stamped after its clock, the epoch and the topology version
  are unchanged, and every stamped host past the scan orders after its
  boundary.

:class:`OptimizerStats` counts the work actually done so benchmarks can
report candidates evaluated, per-app predictions recomputed, and full-view
recomputes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment, MatchPreparation
from repro.prediction.contention import (
    PlacementFootprint,
    PlacementToken,
    SystemView,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController

__all__ = ["OptimizerStats", "ReadSet", "ViewTrial", "TrialEngine"]


@dataclass
class OptimizerStats:
    """Counters for optimizer work, surfaced by benchmarks and telemetry."""

    candidates_evaluated: int = field(init=False, default=0)
    predictions_recomputed: int = field(init=False, default=0)
    full_view_recomputes: int = field(init=False, default=0)
    match_calls: int = field(init=False, default=0)
    #: Partitioned-sweep accounting (the pruned counts stay zero while
    #: the index may not prune).
    partition_sweeps: int = field(init=False, default=0)
    pruned_bundles: int = field(init=False, default=0)
    pruned_candidates: int = field(init=False, default=0)
    #: Pairwise pass: pairs searched, and pairs skipped because records
    #: prove they cannot gain.
    pairs_evaluated: int = field(init=False, default=0)
    pruned_pairs: int = field(init=False, default=0)

    def snapshot(self) -> dict[str, int]:
        # Every field is an int: a copy of the instance dict is what
        # ``dataclasses.asdict`` returns, without its per-field deepcopy
        # (``query_status`` reads this on every call).
        return dict(vars(self))


@dataclass
class ReadSet:
    """What one cached result depends on: a bundle's stable no-op, or a
    settled component's pairs.

    ``chosen`` and ``placed`` are the bundle's configuration and its
    app's view placement the candidates were scored against (compared by
    identity: every commit makes new ones); ``keys`` the hosts and links
    the recomputed predictions read; ``epoch``, ``clock`` and
    ``topology`` the engine's epoch, its commit count and the cluster's
    topology version when they were read.  ``covers`` is ``keys`` and
    the hosts the bundle's first-fit matches examined, ``boundary`` the
    :meth:`~repro.prediction.contention.SystemView.order_key` of the
    furthest of those with ``excluded`` (the bundle's app) excluded,
    and ``reach`` every host and link the bundle's match could read; a
    record with no ``boundary`` covers its ``reach``.  ``covers`` and
    ``boundary`` are set by the latest match, ``reach`` when the record
    is kept, ``clock`` moved up whenever :meth:`TrialEngine.holds`
    proves it.
    """

    chosen: object
    placed: object
    keys: frozenset
    epoch: int
    clock: int
    topology: int
    covers: frozenset = field(init=False, default=frozenset())
    boundary: tuple | None = field(init=False, default=None)
    excluded: str | None = field(init=False, default=None)
    reach: frozenset = field(init=False, default=frozenset())


class ViewTrial:
    """Mutate the live view inside ``with``, roll back on exit.

    All mutations must go through :meth:`place`/:meth:`remove` so their
    undo tokens are recorded.  Trials nest: an inner trial's rollback
    restores the state the outer trial established.  ``tokens`` (in
    application order) describe the net mutation and feed
    :meth:`TrialEngine.trial_predictions`.
    """

    def __init__(self, view: SystemView):
        self.view = view
        self.tokens: list[PlacementToken] = []

    def __enter__(self) -> "ViewTrial":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.rollback()

    def place(self, app_key: str, demands: ConcreteDemands,
              assignment: Assignment) -> PlacementToken:
        token = self.view.place(app_key, demands, assignment)
        self.tokens.append(token)
        return token

    def remove(self, app_key: str) -> PlacementToken:
        token = self.view.remove(app_key)
        self.tokens.append(token)
        return token

    def rollback(self) -> None:
        while self.tokens:
            self.view.restore(self.tokens.pop())


class TrialEngine:
    """Delta prediction over one controller's live view.

    The cache maps the live view's ``version`` to its prediction
    dictionary.  Two operations consume it:

    * :meth:`trial_predictions` — score a trial already applied to the
      view, recomputing only the dirty set implied by its tokens;
    * :meth:`commit` — after the controller applies a candidate or
      releases an application for real, advance the cached predictions
      by the same delta rule instead of rebuilding.

    Any mutation the engine did not see (external-load updates, a failed
    node's displacements, topology reindex) leaves the cached version
    behind; the next :meth:`live_predictions` notices the mismatch,
    rebuilds in full and moves :attr:`epoch`.
    """

    def __init__(self, controller: "AdaptationController"):
        self.controller = controller
        self._predictions: dict[str, float] | None = None
        self._version: int | None = None
        #: Apps whose models may read state outside their footprint —
        #: always recomputed, never trusted from cache.
        self._opaque: set[str] = set()
        #: Moves on every mutation the engine did not see (an
        #: :meth:`invalidate`, a :meth:`_rebuild`): stamps say nothing
        #: across it.
        self.epoch = 0
        #: Commits advanced so far, and host / link -> the commit that
        #: last wrote it; bounded by the cluster's hosts and links.
        self._clock = 0
        self._stamps: dict[object, int] = {}
        #: (clock, {earlier clock: keys stamped after it}), rebuilt when
        #: the clock moves.
        self._stamped: tuple[int, dict[int, frozenset]] = (0, {})
        #: Hosts and links read while :meth:`reading` records.
        self._reads: set | None = None

    # -- cache lifecycle ---------------------------------------------------

    def invalidate(self) -> None:
        self._predictions = None
        self._version = None
        self.epoch += 1

    def live_predictions(self) -> dict[str, float]:
        """Predictions for the live view, rebuilt only when stale."""
        view = self.controller.view
        if self._predictions is None or self._version != view.version:
            self._rebuild()
        assert self._predictions is not None
        return self._predictions

    def _rebuild(self) -> None:
        controller = self.controller
        view = controller.view
        controller.stats.full_view_recomputes += 1
        self.epoch += 1
        with controller.tracer.span("prediction.rebuild") as span:
            predictions: dict[str, float] = {}
            opaque: set[str] = set()
            for placed in view.configurations():
                value = controller.predict_app(view, placed)
                if value is not None:
                    predictions[placed.app_key] = value
                if not controller.model_is_footprint_safe(placed):
                    opaque.add(placed.app_key)
            span.set("apps", len(predictions))
        self._predictions = predictions
        self._opaque = opaque
        self._version = view.version

    # -- trials ------------------------------------------------------------

    def dirty_set(self, tokens: Iterable[PlacementToken]) -> set[str]:
        """App keys whose predictions may differ after these mutations.

        The union of: the mutated apps themselves, every app whose
        placement reads a node or link written by a removed or added
        footprint, and every opaque-model app.
        """
        view = self.controller.view
        dirty = set(self._opaque)
        for token in tokens:
            dirty.add(token.app_key)
            for footprint in (token.removed_footprint,
                              token.added_footprint):
                if footprint is not None:
                    dirty |= view.apps_affected_by(footprint)
        return dirty

    def trial_predictions(self, base: Mapping[str, float],
                          tokens: Sequence[PlacementToken],
                          ) -> dict[str, float]:
        """Predictions for the view as currently mutated by ``tokens``.

        ``base`` must be the prediction dictionary of the view state the
        tokens were applied to (the live cache, or a previous trial's
        result when trials nest).  The result is ``base`` with the dirty
        set recomputed over it — in ``base``'s order, newcomers last, not
        the view's.
        """
        controller = self.controller
        view = controller.view
        reads = self._reads
        with controller.tracer.span("prediction.trial") as span:
            dirty = self.dirty_set(tokens)
            predictions = dict(base)
            for app_key in dirty:
                placed = view.configuration_of(app_key)
                value = None if placed is None \
                    else controller.predict_app(view, placed)
                if value is None:
                    predictions.pop(app_key, None)
                    continue
                predictions[app_key] = value
                if reads is not None:
                    _note_reads(reads, view.footprint_of(app_key))
            if reads is not None:
                # What the live predictions this trial replaces read: the
                # mutated app's old placement, and whom it shared with.
                for token in tokens:
                    _note_reads(reads, token.removed_footprint)
            span.set("dirty", len(dirty))
        return predictions

    # -- read sets -----------------------------------------------------------

    @contextmanager
    def reading(self) -> Iterator[set]:
        """Record the hosts and links the trials inside ``with`` read.

        The set yielded fills with the footprint of every prediction a
        trial recomputes and of every placement a trial displaces.  For a
        footprint-safe model that is all a prediction reads, bar the
        epoch and topology :meth:`read_set` adds.
        """
        self._reads = reads = set()
        try:
            yield reads
        finally:
            self._reads = None

    def read_set(self, chosen: object, placed: object, keys: Iterable = (),
                 epoch: int | None = None) -> ReadSet:
        """What scoring against ``chosen`` and ``placed`` read: ``keys``,
        at ``epoch`` (``None``: the current one)."""
        if epoch is None:
            self.live_predictions()
            epoch = self.epoch
        return ReadSet(chosen=chosen, placed=placed,
                       keys=frozenset(keys), epoch=epoch, clock=self._clock,
                       topology=self.controller.cluster.topology_version)

    def cover_scan(self, record: ReadSet, prepared: MatchPreparation,
                   app_key: str) -> None:
        """Make ``record`` cover what the matches of ``prepared`` read of
        the nodes: the hosts they examined, and the boundary past which
        they examined none."""
        prefix, furthest = prepared.examined()
        order_key = self.controller.view.order_key
        record.boundary = max((order_key(node.hostname, app_key)
                               for node in furthest), default=())
        record.excluded = app_key
        record.covers = record.keys.union(prefix)

    def holds(self, record: ReadSet, chosen: object, placed: object) -> bool:
        """Whether the result ``record`` describes still holds before any
        match: the same configuration and placement, no unseen mutation,
        the same topology, no stamp on what it covers since, and no
        stamped host of its reach now ordered before its boundary."""
        # An unseen mutation moves the epoch only when the cache is read.
        self.live_predictions()
        if record.chosen is not chosen or record.placed is not placed or \
                record.epoch != self.epoch or record.topology != \
                self.controller.cluster.topology_version:
            return False
        if record.clock != self._clock:
            stamped = self._stamped_after(record.clock)
            if not record.covers.isdisjoint(stamped):
                return False
            # A host the scan did not reach is examined next time only
            # if it now orders before the furthest one it did; its key
            # moves only with a stamp.
            if record.boundary is not None and \
                    not stamped.isdisjoint(record.reach) and \
                    self.controller.view.orders_before(
                        stamped & record.reach, record.boundary,
                        record.excluded):
                return False
        # Holds up to now: the records a sweep checks come to share a
        # few clocks, each resolved once above.
        record.clock = self._clock
        return True

    def _stamped_after(self, clock: int) -> frozenset:
        """The keys stamped after ``clock``, derived once per clock until
        the next stamp."""
        now, stamped = self._stamped
        if now != self._clock:
            stamped = {}
            self._stamped = (self._clock, stamped)
        after = stamped.get(clock)
        if after is None:
            after = stamped[clock] = frozenset(
                key for key, at in self._stamps.items() if at > clock)
        return after

    def stamp(self, keys: Iterable) -> None:
        """Mark hosts and links written now: every record covering one
        stops holding."""
        self._clock += 1
        for key in keys:
            self._stamps[key] = self._clock

    # -- commits -----------------------------------------------------------

    def commit(self, tokens: Sequence[PlacementToken],
               held: Iterable[str] = (),
               load: PlacementFootprint | None = None) -> None:
        """Advance the cache over mutations applied to the live view:
        ``tokens``, and one external-load change on ``load``'s hosts and
        links.

        Valid only when they account for every version bump since the
        cache was built; otherwise the cache is dropped and the next read
        rebuilds.  The advanced dictionary keeps the view's order, as a
        rebuild would.  Every host and link the tokens or ``load`` write,
        and every host in ``held`` (where the commit reserved or released
        memory), is stamped with this commit.
        """
        controller = self.controller
        view = controller.view
        base = self._predictions
        bumps = sum(1 for token in tokens if token.removed is not None
                    or token.added is not None) + (load is not None)
        written = set(held)
        for token in tokens:
            _note_reads(written, token.removed_footprint)
            _note_reads(written, token.added_footprint)
        _note_reads(written, load)
        self.stamp(written)
        if base is None or self._version is None or \
                view.version != self._version + bumps:
            self.invalidate()
            return
        if not bumps:
            return          # nothing the view shows moved
        dirty = self.dirty_set(tokens)
        if load is not None:
            dirty |= view.apps_affected_by(load)
        predictions: dict[str, float] = {}
        for placed in view.configurations():
            app_key = placed.app_key
            if app_key not in dirty and app_key in base:
                predictions[app_key] = base[app_key]
                continue
            value = controller.predict_app(view, placed)
            if value is not None:
                predictions[app_key] = value
        self._predictions = predictions
        for token in tokens:
            self._opaque.discard(token.app_key)
            placed = view.configuration_of(token.app_key)
            if placed is not None and \
                    not controller.model_is_footprint_safe(placed):
                self._opaque.add(token.app_key)
        self._version = view.version


def _note_reads(keys: set, footprint: PlacementFootprint | None) -> None:
    """Add the hosts and links a placement computes on or reads."""
    if footprint is not None:
        keys.update(footprint.cpu)
        keys.update(footprint.read_links)

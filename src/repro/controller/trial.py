"""Transactional candidate trials and delta prediction.

The optimizer's inner loop scores hundreds of candidate configurations per
decision.  The original implementation paid for each score twice over: a
full copy of the view to build the trial state, then a from-scratch
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

* **Move reuse** — :meth:`TrialEngine.move_predictions` scores one
  bundle's candidate, and recomputes only what the move changes.  A
  footprint-safe co-tenant's prediction is a function of its own
  placement and of the entries on its hosts and read links, so the
  engine keeps a table: the co-tenant, with the entries the move
  removes and adds there as values, maps to its prediction under the
  move.  An entry lives until a commit recomputes its co-tenant's live
  prediction (which every commit on its footprint, or of the co-tenant
  itself, does), and goes with the cache.  When every co-tenant is in
  the table, none is opaque and the moved app's model leaves out its own
  entries by app key (the default model's ``sojourn``; the explicit
  models' ``contention_stretch`` counts the app itself), the view is not
  edited: the app is predicted against the live view, where only its own
  entries differ.  The floats, and the reads noted, are the edited
  trial's.  ``optimize_pair``'s nested trials stay edited.

* **Records** — the engine stamps every host and link a commit writes
  or holds memory on, or whose load or availability changes, and moves
  an :attr:`TrialEngine.epoch` on every mutation it did not see.
  :meth:`TrialEngine.reading` records what one evaluation's recomputed
  predictions read (:class:`ReadSet`), and :meth:`TrialEngine.cover_scan`
  what its first-fit matches examined.  One rule, checked before the
  match (:meth:`TrialEngine.holds`): a record is valid while it is
  :meth:`~TrialEngine.alive` — no key it covers is stamped after its
  clock, the epoch and the topology version are unchanged — and every
  stamped host past the scan orders after its boundary.  Only that last
  clause can come true again, so a bundle's latest record and the one
  it displaced are checked by the same rule.

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
    PlacedConfiguration,
    PlacementFootprint,
    PlacementToken,
    SystemView,
)
from repro.prediction.models import DefaultModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController

__all__ = ["OptimizerStats", "ReadSet", "ViewTrial", "TrialEngine"]

#: Moves one co-tenant's reuse table holds before it starts again.
REUSE_PER_APP = 64


@dataclass
class OptimizerStats:
    """Counters for optimizer work, surfaced by benchmarks and telemetry.

    Each counter is set on the instance by ``__init__`` (a
    ``default_factory``; a plain default would leave it on the class
    until first bumped), so :meth:`snapshot` sees every one.
    """

    candidates_evaluated: int = field(init=False, default_factory=int)
    predictions_recomputed: int = field(init=False, default_factory=int)
    full_view_recomputes: int = field(init=False, default_factory=int)
    match_calls: int = field(init=False, default_factory=int)
    #: Partitioned-sweep accounting (the pruned counts stay zero while
    #: the index may not prune).
    partition_sweeps: int = field(init=False, default_factory=int)
    pruned_bundles: int = field(init=False, default_factory=int)
    pruned_candidates: int = field(init=False, default_factory=int)
    #: Pairwise pass: pairs searched, and pairs skipped because records
    #: prove they cannot gain.
    pairs_evaluated: int = field(init=False, default_factory=int)
    pruned_pairs: int = field(init=False, default_factory=int)

    def snapshot(self) -> dict[str, int]:
        # Every field is an int: a copy of the instance dict is what
        # ``dataclasses.asdict`` returns, without its per-field deepcopy
        # (``query_status`` reads this on every call).
        return dict(vars(self))


@dataclass
class ReadSet:
    """What one cached result depends on: one of a bundle's stable
    no-ops (its latest, or the one that record displaced), or a settled
    component's pairs.

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
    dictionary.  Three operations consume it:

    * :meth:`trial_predictions` — score a trial already applied to the
      view, recomputing only the dirty set implied by its tokens;
    * :meth:`move_predictions` — score one app's move, reusing what the
      reuse table knows of its co-tenants under the same move;
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
        #: The reuse table: co-tenant -> {the entries a move removes and
        #: adds on its hosts and read links: its prediction under that
        #: move}.  A co-tenant's row goes when a commit recomputes its
        #: live prediction (one that moves it does), and all of them with
        #: the cache.
        self._reuse: dict[str, dict[tuple, float]] = {}

    # -- cache lifecycle ---------------------------------------------------

    def invalidate(self) -> None:
        self._predictions = None
        self._version = None
        self._reuse.clear()
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
        self._reuse.clear()
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
        reads = self._reads
        with self.controller.tracer.span("prediction.trial") as span:
            dirty = self.dirty_set(tokens)
            predictions = dict(base)
            for app_key in dirty:
                self._predict_into(predictions, app_key)
            if reads is not None:
                # What the live predictions this trial replaces read: the
                # mutated app's old placement, and whom it shared with.
                for token in tokens:
                    _note_reads(reads, token.removed_footprint)
            span.set("dirty", len(dirty))
        return predictions

    def move_predictions(self, base: Mapping[str, float], app_key: str,
                         demands: ConcreteDemands, assignment: Assignment,
                         ) -> dict[str, float]:
        """Predictions for the live view with ``app_key`` moved to
        ``demands`` on ``assignment``; ``base`` is the live cache.

        Equal to :meth:`trial_predictions` of that one placement, reads
        included, but a co-tenant the reuse table knows under this move
        is not predicted again, and when it knows every one (none
        opaque) and the moved app's model leaves out its own entries by
        app key, the view is not edited at all: the app is predicted
        against the live view, where only its own entries differ.
        """
        controller = self.controller
        view = controller.view
        reads = self._reads
        with controller.tracer.span("prediction.trial") as span:
            removed = view.footprint_of(app_key)
            added = view.compiled(demands, assignment)
            others = view.apps_affected_by(added)
            if removed is not None:
                others |= view.apps_affected_by(removed)
            others |= self._opaque
            others.discard(app_key)
            predictions = dict(base)
            known: list[str] = []
            missing: list[tuple[str, tuple | None]] = []
            for other in others:
                if other in self._opaque:
                    missing.append((other, None))
                    continue
                key = _move_key(view.footprint_of(other), removed, added)
                value = self._reused(other, key)
                if value is None:
                    missing.append((other, key))
                else:
                    predictions[other] = value
                    known.append(other)
            moved = None if missing else \
                PlacedConfiguration(app_key, demands, assignment)
            if moved is None or \
                    type(controller.model_of(moved)) is not DefaultModel:
                with ViewTrial(view) as trial:
                    trial.place(app_key, demands, assignment)
                    self._predict_into(predictions, app_key)
                    for other, key in missing:
                        value = self._predict_into(predictions, other)
                        if key is not None and value is not None:
                            self._reuse_store(other, key, value)
            else:
                value = controller.predict_app(view, moved)
                if value is None:
                    predictions.pop(app_key, None)
                else:
                    predictions[app_key] = value
                    if reads is not None:
                        _note_reads(reads, added)
            if reads is not None:
                for other in known:
                    _note_reads(reads, view.footprint_of(other))
                _note_reads(reads, removed)
            span.set("dirty", len(others) + 1)
        return predictions

    def _predict_into(self, predictions: dict[str, float],
                      app_key: str) -> float | None:
        """Predict ``app_key``'s placement on the view into
        ``predictions`` (dropping it when it has no prediction) and note
        what it read."""
        controller = self.controller
        view = controller.view
        placed = view.configuration_of(app_key)
        value = None if placed is None \
            else controller.predict_app(view, placed)
        if value is None:
            predictions.pop(app_key, None)
            return None
        predictions[app_key] = value
        if self._reads is not None:
            _note_reads(self._reads, view.footprint_of(app_key))
        return value

    def _reused(self, app_key: str, key: tuple) -> float | None:
        """The prediction the table holds for ``app_key`` under the move
        ``key`` names."""
        row = self._reuse.get(app_key)
        return None if row is None else row.get(key)

    def _reuse_store(self, app_key: str, key: tuple, value: float) -> None:
        row = self._reuse.get(app_key)
        if row is None or len(row) >= REUSE_PER_APP:
            row = self._reuse[app_key] = {}
        row[key] = value

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

    def alive(self, record: ReadSet, chosen: object, placed: object) -> bool:
        """Whether the result ``record`` describes can still hold: the
        same configuration and placement, no unseen mutation, the same
        topology and no stamp on what it covers since.  Everything
        :meth:`holds` checks but the boundary, which a later stamp can
        put right again."""
        # An unseen mutation moves the epoch only when the cache is read.
        self.live_predictions()
        return record.chosen is chosen and record.placed is placed and \
            record.epoch == self.epoch and record.topology == \
            self.controller.cluster.topology_version and (
                record.clock == self._clock or record.covers.isdisjoint(
                    self._stamped_after(record.clock)))

    def holds(self, record: ReadSet, chosen: object, placed: object) -> bool:
        """Whether the result ``record`` describes still holds before any
        match: it is :meth:`alive`, and no stamped host of its reach now
        orders before its boundary."""
        if not self.alive(record, chosen, placed):
            return False
        if record.clock != self._clock and record.boundary is not None:
            # A host the scan did not reach is examined next time only
            # if it now orders before the furthest one it did; its key
            # moves only with a stamp.
            stamped = self._stamped_after(record.clock)
            if not stamped.isdisjoint(record.reach) and \
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
        for app_key in dirty:
            self._reuse.pop(app_key, None)
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


def _move_key(footprint: PlacementFootprint,
              removed: PlacementFootprint | None,
              added: PlacementFootprint) -> tuple:
    """What a move changes on ``footprint``'s hosts and read links: per
    one the moved app touches, its removed and its added entries, as
    values — the same key whichever app moved."""
    key = []
    removed_cpu = removed.cpu if removed is not None else {}
    added_cpu = added.cpu
    for hostname in footprint.cpu:
        gone = removed_cpu.get(hostname)
        new = added_cpu.get(hostname)
        if gone or new:
            key.append((hostname, gone, new))
    removed_flows = removed.flows if removed is not None else {}
    added_flows = added.flows
    if removed_flows or added_flows:
        for link in footprint.read_links:
            gone = removed_flows.get(link)
            new = added_flows.get(link)
            if gone or new:
                key.append((link, gone, new))
    return tuple(key)


def _note_reads(keys: set, footprint: PlacementFootprint | None) -> None:
    """Add the hosts and links a placement computes on or reads."""
    if footprint is not None:
        keys.update(footprint.cpu)
        keys.update(footprint.read_links)

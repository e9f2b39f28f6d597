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
  (custom callables, critical-path models).  Everything else reuses its
  cached value — which the dirty-set contract guarantees is identical to
  what a full recompute would produce.

:class:`OptimizerStats` counts the work actually done so benchmarks can
report candidates evaluated, per-app predictions recomputed, and full-view
recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment
from repro.prediction.contention import PlacementToken, SystemView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController

__all__ = ["OptimizerStats", "ViewTrial", "TrialEngine"]


@dataclass
class OptimizerStats:
    """Counters for optimizer work, surfaced by benchmarks and telemetry."""

    candidates_evaluated: int = 0
    predictions_recomputed: int = 0
    full_view_recomputes: int = 0
    match_calls: int = 0
    #: Partitioned-sweep accounting (the pruned counts stay zero while
    #: the index may not prune).
    partition_sweeps: int = 0
    pruned_bundles: int = 0
    pruned_candidates: int = 0
    #: Pairwise pass: pairs searched, and pairs skipped because the
    #: partition epochs prove they cannot gain.
    pairs_evaluated: int = 0
    pruned_pairs: int = 0

    def snapshot(self) -> dict[str, int]:
        return {"candidates_evaluated": self.candidates_evaluated,
                "predictions_recomputed": self.predictions_recomputed,
                "full_view_recomputes": self.full_view_recomputes,
                "match_calls": self.match_calls,
                "partition_sweeps": self.partition_sweeps,
                "pruned_bundles": self.pruned_bundles,
                "pruned_candidates": self.pruned_candidates,
                "pairs_evaluated": self.pairs_evaluated,
                "pruned_pairs": self.pruned_pairs}


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
    behind; the next :meth:`live_predictions` notices the mismatch and
    rebuilds in full.
    """

    def __init__(self, controller: "AdaptationController"):
        self.controller = controller
        self._predictions: dict[str, float] | None = None
        self._version: int | None = None
        #: Apps whose models may read state outside their footprint —
        #: always recomputed, never trusted from cache.
        self._opaque: set[str] = set()

    # -- cache lifecycle ---------------------------------------------------

    def invalidate(self) -> None:
        self._predictions = None
        self._version = None

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
                          tokens: Iterable[PlacementToken],
                          ) -> dict[str, float]:
        """Predictions for the view as currently mutated by ``tokens``.

        ``base`` must be the prediction dictionary of the view state the
        tokens were applied to (the live cache, or a previous trial's
        result when trials nest).  Clean apps reuse their ``base`` value;
        the result preserves the view's configuration iteration order, so
        objective evaluation sums in the same order as a full recompute.
        """
        controller = self.controller
        view = controller.view
        with controller.tracer.span("prediction.trial") as span:
            dirty = self.dirty_set(tokens)
            predictions: dict[str, float] = {}
            for placed in view.configurations():
                app_key = placed.app_key
                if app_key not in dirty and app_key in base:
                    predictions[app_key] = base[app_key]
                    continue
                value = controller.predict_app(view, placed)
                if value is not None:
                    predictions[app_key] = value
            span.set("dirty", len(dirty))
        return predictions

    # -- commits -----------------------------------------------------------

    def commit(self, tokens: list[PlacementToken]) -> None:
        """Advance the cache over mutations applied to the live view.

        Valid only when ``tokens`` account for every version bump since
        the cache was built; otherwise the cache is dropped and the next
        read rebuilds.
        """
        view = self.controller.view
        if self._predictions is None or self._version is None or \
                view.version != self._version + len(tokens):
            self.invalidate()
            return
        self._predictions = self.trial_predictions(self._predictions,
                                                   tokens)
        for token in tokens:
            self._opaque.discard(token.app_key)
            placed = view.configuration_of(token.app_key)
            if placed is not None and \
                    not self.controller.model_is_footprint_safe(placed):
                self._opaque.add(token.app_key)
        self._version = view.version

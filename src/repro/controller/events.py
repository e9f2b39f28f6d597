"""Performance-event-driven adaptation (paper Section 5).

"The Harmony process is an event driven system that waits for application
and performance events.  When an event happens, it triggers the automatic
application adaptation system, and each of the option bundles for each
application gets re-evaluated."

*Application events* (registration, bundle setup, termination) already
trigger re-evaluation synchronously inside the controller.  This module
adds the *performance* half: :class:`PerformanceEventMonitor` subscribes to
application-reported response times through the metric interface, compares
them with the controller's own predictions, and fires a re-evaluation as
soon as an application is persistently slower than promised — without
waiting for the periodic timer.  Each trigger is one ``performance_event``
in the controller's flight recorder and one bump of the
``controller.performance_events`` counter.
"""

from __future__ import annotations

from repro.controller.controller import AdaptationController
from repro.errors import ControllerError
from repro.metrics.history import Observation

__all__ = ["PerformanceEventMonitor"]


#: A report slower than this many times the prediction is a violation.
TOLERANCE = 1.5
#: Successive violations that fire a re-evaluation.
CONSECUTIVE_VIOLATIONS = 3
#: Simulated seconds one application must wait between two triggers.
COOLDOWN_SECONDS = 30.0


class PerformanceEventMonitor:
    """Watches ``app.<key>.response_time`` metrics for sustained slowdown.

    A re-evaluation fires when :data:`CONSECUTIVE_VIOLATIONS` successive
    reports exceed :data:`TOLERANCE` times the prediction the controller
    made when it chose the configuration.  :data:`COOLDOWN_SECONDS`
    bounds how often one application can trigger (the periodic loop
    still provides the baseline cadence).
    """

    def __init__(self, controller: AdaptationController):
        self.controller = controller
        self._violation_counts: dict[str, int] = {}
        self._last_trigger: dict[str, float] = {}
        self._unsubscribe = None

    def start(self) -> "PerformanceEventMonitor":
        """Subscribe to application metrics; returns self for chaining."""
        if self._unsubscribe is not None:
            return self
        self._unsubscribe = self.controller.metrics.subscribe(
            "app", self._on_metric)
        return self

    def stop(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- internals ---------------------------------------------------------

    def _on_metric(self, name: str, observation: Observation) -> None:
        parts = name.split(".")
        # app.<app>.<instance>.response_time
        if len(parts) != 4 or parts[3] != "response_time":
            return
        app_key = f"{parts[1]}.{parts[2]}"
        prediction = self._current_prediction(app_key)
        if prediction is None:
            return
        bundle_name, predicted = prediction
        if predicted <= 0:
            return

        if observation.value > predicted * TOLERANCE:
            count = self._violation_counts.get(app_key, 0) + 1
            self._violation_counts[app_key] = count
            if count >= CONSECUTIVE_VIOLATIONS:
                self._maybe_trigger(app_key, bundle_name, predicted,
                                    observation)
        else:
            self._violation_counts[app_key] = 0

    def _current_prediction(self, app_key: str,
                            ) -> tuple[str, float] | None:
        try:
            instance = self.controller.registry.instance(app_key)
        except ControllerError:
            # Unknown key: the app ended/was evicted between the metric
            # arriving and this lookup.  Never a blanket except — an
            # AttributeError here is a bug, not a missing registration.
            return None
        for bundle_name, state in instance.bundles.items():
            if state.chosen is not None:
                return bundle_name, state.chosen.predicted_seconds
        return None

    def _maybe_trigger(self, app_key: str, bundle_name: str,
                       predicted: float, observation: Observation) -> None:
        now = self.controller.now
        last = self._last_trigger.get(app_key)
        if last is not None and now - last < COOLDOWN_SECONDS:
            return
        self._last_trigger[app_key] = now
        self._violation_counts[app_key] = 0
        changes = self.controller.reevaluate()
        self.controller.flight_recorder.record(
            "performance_event", client=app_key, bundle_name=bundle_name,
            predicted_seconds=predicted,
            observed_seconds=observation.value, changes_applied=changes,
            sim_time=now)
        self.controller.metrics.increment("controller.performance_events",
                                          now)

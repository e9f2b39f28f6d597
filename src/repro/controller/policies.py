"""Alternative decision policies.

The paper's Figure 7 experiment did not yet use the full optimizer: "For our
initial experiments, the controller was configured with a simple rule for
changing configurations based on the number of active clients."
:class:`ClientCountRulePolicy` reproduces that rule; the benchmark harness
runs the database experiment under both it and the model-driven policy and
shows both produce the same query-shipping -> data-shipping switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.allocation.instantiate import instantiate_option
from repro.controller.controller import (
    AdaptationController,
    DecisionPolicy,
)
from repro.controller.optimizer import Candidate, bundle_holder
from repro.controller.registry import AppInstance, BundleState
from repro.controller.trial import ViewTrial
from repro.errors import AllocationError
from repro.obs.trace import (
    REJECT_INFEASIBLE,
    REJECT_RULE_NOT_SELECTED,
    CandidateTrace,
)

__all__ = ["ClientCountRulePolicy"]


@dataclass
class ClientCountRulePolicy(DecisionPolicy):
    """Choose options by counting active instances of one application.

    Instances of ``app_name`` with a bundle named ``bundle_name`` are set to
    ``below_option`` while fewer than ``threshold`` of them are active, and
    to ``at_or_above_option`` once the count reaches the threshold.  For the
    paper's experiment: app ``DBclient``, bundle ``where``, threshold 3,
    ``QS`` below, ``DS`` at or above.

    ``reaction_seconds`` makes the rule fire only after its condition has
    held that long, reproducing the paper's "the addition of the third
    client also *eventually* triggers the Harmony system to send a
    re-configuration event": the transient spike of three query-shipping
    clients is visible before the switch.  Set to 0 for instant switching.
    """

    app_name: str
    bundle_name: str
    threshold: int
    below_option: str
    at_or_above_option: str
    reaction_seconds: float = 0.0
    _condition_since: float | None = None

    def _count_active(self, controller: AdaptationController) -> int:
        return sum(1 for instance in controller.registry.instances()
                   if instance.app_name == self.app_name
                   and self.bundle_name in instance.bundles)

    def _target_option(self, controller: AdaptationController) -> str:
        if self._count_active(controller) >= self.threshold:
            if self._condition_since is None:
                self._condition_since = controller.now
            if controller.now - self._condition_since \
                    >= self.reaction_seconds:
                return self.at_or_above_option
            return self.below_option
        self._condition_since = None
        return self.below_option

    def configure_new_bundle(self, controller: AdaptationController,
                             instance: AppInstance, state: BundleState,
                             reason: str = "initial") -> None:
        if instance.app_name == self.app_name and \
                state.bundle.bundle_name == self.bundle_name:
            target = self._target_option(controller)
        else:
            target = state.bundle.options[0].name
        self._set(controller, instance, state, target, reason=reason,
                  required=True)

    def reevaluate(self, controller: AdaptationController) -> int:
        changes = 0
        target = self._target_option(controller)
        for instance in controller.registry.instances():
            if instance.app_name != self.app_name:
                continue
            state = instance.bundles.get(self.bundle_name)
            if state is None or state.chosen is None:
                continue
            if state.chosen.option_name == target:
                continue
            if not state.granularity_allows_switch(controller.now):
                continue
            self._set(controller, instance, state, target,
                      reason=f"rule: {self._describe_rule()}")
            changes += 1
        return changes

    def _describe_rule(self) -> str:
        return (f"#active({self.app_name}) >= {self.threshold} -> "
                f"{self.at_or_above_option}")

    def _evaluate_option(self, controller: AdaptationController,
                         instance: AppInstance, state: BundleState,
                         option_name: str) -> Candidate:
        """Instantiate, match, and score one option on the live view.

        Raises :class:`AllocationError` when the option has no feasible
        placement.  Scoring is by trial-and-rollback: the placement is
        applied in place and undone before returning.
        """
        option = state.bundle.option_named(option_name)
        assignment_vars = {spec.name: spec.default_value()
                           for spec in option.variables}
        demands = instantiate_option(option, assignment_vars)
        # A reconfiguring application may re-use the resources it
        # currently holds, so its own reservations are ignored.
        assignment = controller.matcher.match(
            demands,
            ignore_holders={bundle_holder(instance, state)})
        candidate = Candidate(
            option_name=option_name,
            variable_assignment=assignment_vars,
            memory_grants={},
            demands=demands,
            assignment=assignment)
        with ViewTrial(controller.view) as trial:
            trial.place(instance.key, demands, assignment)
            predictions = controller.predict_all(controller.view)
        candidate.predicted_seconds = predictions.get(
            instance.key, float("inf"))
        candidate.objective_value = controller.objective.evaluate(predictions)
        return candidate

    def _set(self, controller: AdaptationController, instance: AppInstance,
             state: BundleState, option_name: str, reason: str,
             required: bool = False) -> None:
        try:
            candidate = self._evaluate_option(controller, instance, state,
                                              option_name)
        except AllocationError:
            if required:
                raise  # an initial configuration must exist
            return  # re-evaluation: keep the current configuration
        objective_before = controller.current_objective()
        controller.commit(
            [(instance, state, candidate)], reason=reason,
            objective_before=objective_before,
            trace_candidates=self._trace_alternatives(
                controller, instance, state, candidate, objective_before))

    def _trace_alternatives(self, controller: AdaptationController,
                            instance: AppInstance, state: BundleState,
                            chosen: Candidate, objective_before: float,
                            ) -> list[CandidateTrace]:
        """Score every option of the bundle, purely for the decision trace.

        The rule picks its target without comparing objectives, so the
        alternatives are evaluated here — the trace must still explain
        what the rule's choice cost relative to the other options (the
        "why QS beat DS" record for Figure 7).
        """
        records: list[CandidateTrace] = []
        for option in state.bundle.options:
            if option.name == chosen.option_name:
                records.append(CandidateTrace(
                    option_name=chosen.option_name,
                    variable_assignment=dict(chosen.variable_assignment),
                    placements=dict(chosen.assignment.placements),
                    predicted_seconds=chosen.predicted_seconds,
                    objective_value=chosen.objective_value,
                    objective_delta=chosen.objective_value
                    - objective_before,
                    friction_cost_seconds=controller.friction_cost(
                        state, chosen.option_name),
                    chosen=True,
                    rejection_reason=None))
                continue
            try:
                alternative = self._evaluate_option(controller, instance,
                                                    state, option.name)
            except AllocationError:
                records.append(CandidateTrace(
                    option_name=option.name,
                    variable_assignment={},
                    placements={},
                    predicted_seconds=math.inf,
                    objective_value=math.inf,
                    objective_delta=math.inf,
                    friction_cost_seconds=controller.friction_cost(
                        state, option.name),
                    chosen=False,
                    rejection_reason=REJECT_INFEASIBLE,
                    detail="no feasible placement"))
                continue
            records.append(CandidateTrace(
                option_name=option.name,
                variable_assignment=dict(alternative.variable_assignment),
                placements=dict(alternative.assignment.placements),
                predicted_seconds=alternative.predicted_seconds,
                objective_value=alternative.objective_value,
                objective_delta=alternative.objective_value
                - objective_before,
                friction_cost_seconds=controller.friction_cost(
                    state, option.name),
                chosen=False,
                rejection_reason=REJECT_RULE_NOT_SELECTED,
                detail=f"rule selected {chosen.option_name!r} "
                       f"({self._describe_rule()})"))
        return records

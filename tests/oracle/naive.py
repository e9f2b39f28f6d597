"""The from-scratch optimizer the trial engine is tested against.

:class:`NaiveGreedyOptimizer` scores candidates the way the original
algorithm did: copy the view, place the candidate, predict every
application.  It also enumerates without the configuration cache —
instantiating every option and probing every elastic-memory grant again —
and orders nodes by a from-scratch sort (:func:`load_order_key`) instead
of the view's maintained load order.  It must make the decisions the
product optimizer makes.
"""

import math

from repro.allocation.instantiate import instantiate_option
from repro.controller.optimizer import (
    Candidate,
    GreedyOptimizer,
    OptimizationResult,
    _best_memory_for,
    _extra_memory,
    _memory_dependent_demands,
    _pair_memory_ok,
    bundle_holder,
)
from repro.errors import AllocationError, RslSemanticError


def load_order_key(view, exclude_apps=()):
    """Prefer idle nodes; among equally loaded ones, prefer faster nodes.

    Load includes measured external consumers, so candidates also spread
    away from work Harmony does not manage.  ``exclude_apps`` subtracts
    the named applications' own demands from the per-node counts —
    equivalent to copying the view and removing them.
    """
    excluded = {}
    for app_key in exclude_apps:
        footprint = view.footprint_of(app_key)
        if footprint is None:
            continue
        for hostname, seconds in footprint.cpu.items():
            excluded[hostname] = excluded.get(hostname, 0) + len(seconds)

    def order_key(hostname):
        load = (float(view.cpu_consumers(hostname)
                      - excluded.get(hostname, 0))
                + view.external_cpu_load(hostname))
        return (load, -view.cluster.node(hostname).speed)

    return order_key


def memory_grant_choices(option, base, probe_limit):
    """The product's grant choices, every probe instantiated again."""
    yield {}
    for demand in _memory_dependent_demands(option, base)[:probe_limit]:
        best = _best_memory_for(option, base, demand)
        if best is not None and best > demand.memory_min_mb:
            yield {f"{demand.local_name}.memory": best}


def candidates_for_assignment(option, variable_assignment, context,
                              ignore_holders, order_key):
    try:
        base = instantiate_option(option, variable_assignment)
    except RslSemanticError:
        return
    for grants in memory_grant_choices(option, base,
                                       context.memory_probe_limit):
        if context.stats is not None:
            context.stats.match_calls += 1
        try:
            demands = (base if not grants
                       else instantiate_option(option, variable_assignment,
                                               grants=grants))
            assignment = context.matcher.match(
                demands, extra_memory=_extra_memory(demands, grants),
                ignore_holders=ignore_holders, order_key=order_key)
        except (AllocationError, RslSemanticError):
            continue
        yield Candidate(option_name=option.name,
                        variable_assignment=dict(variable_assignment),
                        memory_grants=dict(grants),
                        demands=demands,
                        assignment=assignment)


def enumerate_candidates(instance, state, context,
                         extra_ignore_holders=frozenset(),
                         ordering_view=None):
    """Every matchable configuration of ``state``'s bundle, from the RSL.

    Nodes are ordered by load as seen without this application, or as
    seen in ``ordering_view`` when given (the pair search orders against
    its copied trial states).
    """
    ignore = frozenset({bundle_holder(instance, state)}) \
        | extra_ignore_holders
    if ordering_view is not None:
        order_key = load_order_key(ordering_view)
    else:
        order_key = load_order_key(context.view,
                                   exclude_apps=(instance.key,))
    for option in state.bundle.options:
        for variable_assignment in option.variable_assignments():
            yield from candidates_for_assignment(
                option, dict(variable_assignment), context, ignore,
                order_key)


class NaiveGreedyOptimizer(GreedyOptimizer):
    """:class:`GreedyOptimizer` scored from scratch on copied views."""

    def optimize_pair(self, first, second, context):
        instance_a, state_a = first
        instance_b, state_b = second
        ignore = frozenset({bundle_holder(instance_a, state_a),
                            bundle_holder(instance_b, state_b)})
        base_view = context.view.copy()
        base_view.remove(instance_a.key)
        base_view.remove(instance_b.key)
        candidates_a = list(enumerate_candidates(
            instance_a, state_a, context, extra_ignore_holders=ignore,
            ordering_view=base_view))
        if not candidates_a:
            return None

        best = None
        for cand_a in candidates_a:
            # Re-enumerate the second bundle with the first candidate
            # placed, so its placements spread away from cand_a's nodes.
            view_with_a = base_view.copy()
            view_with_a.place(instance_a.key, cand_a.demands,
                              cand_a.assignment)
            for cand_b in enumerate_candidates(
                    instance_b, state_b, context,
                    extra_ignore_holders=ignore,
                    ordering_view=view_with_a):
                if not _pair_memory_ok(context.view.cluster, ignore,
                                       cand_a, cand_b):
                    continue
                if context.stats is not None:
                    context.stats.candidates_evaluated += 1
                trial_view = view_with_a.copy()
                trial_view.place(instance_b.key, cand_b.demands,
                                 cand_b.assignment)
                predictions = context.predict_all(trial_view)
                objective = context.objective.evaluate(predictions)
                if best is None or objective < best[2] - 1e-12:
                    copy_a = cand_a.clone()
                    copy_b = cand_b.clone()
                    copy_a.objective_value = objective
                    copy_b.objective_value = objective
                    copy_a.predicted_seconds = predictions.get(
                        instance_a.key, math.inf)
                    copy_b.predicted_seconds = predictions.get(
                        instance_b.key, math.inf)
                    best = (copy_a, copy_b, objective)
        return best

    def optimize_bundle(self, instance, state, context):
        current_objective = context.objective.evaluate(
            context.predict_all(context.view))

        best = None
        evaluated = []
        for candidate in enumerate_candidates(instance, state, context):
            evaluated.append(candidate)
            trial_view = context.view.copy()
            trial_view.place(instance.key, candidate.demands,
                             candidate.assignment)
            predictions = context.predict_all(trial_view)
            candidate.objective_value = context.objective.evaluate(
                predictions)
            candidate.predicted_seconds = predictions.get(
                instance.key, math.inf)
            if best is None or \
                    candidate.objective_value < best.objective_value - 1e-12:
                best = candidate
        if context.stats is not None:
            context.stats.candidates_evaluated += len(evaluated)
        return OptimizationResult(best=best,
                                  candidates_evaluated=len(evaluated),
                                  current_objective=current_objective,
                                  evaluated=evaluated)

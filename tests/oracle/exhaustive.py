"""The search the greedy optimizer's choices are measured against.

:class:`ExhaustiveOptimizer` tries every order of the applications and,
in each order, every combination of their options, variable values and
memory grants — exponential, so only small scenarios — and returns the
combination with the best objective.  Node placement is not searched:
each application is placed by the controller's matcher, on the least
loaded nodes once the applications before it in the order are placed.
The greedy sweep (paper Section 4.3) draws its placements from the same
matcher one bundle at a time, so on a cluster whose nodes are alike the
sweep's objective minus this one's is the cost of optimizing one bundle
at a time.  On unlike nodes the sweep may reach a placement this search
does not try, and the difference can then be negative.
"""

import math
from itertools import permutations

from repro.controller.optimizer import (
    Candidate,
    OptimizationContext,
    enumerate_candidates,
)
from repro.controller.registry import AppInstance
from repro.controller.trial import ViewTrial
from repro.errors import AllocationError
from repro.prediction.contention import SystemView


#: The most combinations :class:`ExhaustiveOptimizer` will search.
MAX_COMBINATIONS = 200_000


class ExhaustiveOptimizer:
    """Search over every order and configuration of the applications.

    The cap is checked before searching, against the orders times the
    product of each bundle's configuration-space size: every candidate
    is one configuration the matcher placed, so no view yields more.
    The search raises when the cap is exceeded so callers notice rather
    than silently truncate.
    """

    def optimize_all(self, instances: list[AppInstance],
                     context: OptimizationContext,
                     ) -> tuple[dict[str, Candidate], float, int]:
        """Returns (choice per app key, objective, combinations tried)."""
        per_app = [(instance, state) for instance in instances
                   for state in instance.bundles.values()]
        total = math.factorial(len(per_app))
        for _instance, state in per_app:
            total *= len(context.cache.space_for(state.bundle))
        if total > MAX_COMBINATIONS:
            raise AllocationError(
                f"exhaustive search space {total} exceeds cap "
                f"{MAX_COMBINATIONS}")

        engine = context.engine
        live = engine.live_predictions()
        best: tuple[dict[str, Candidate], float] = ({}, math.inf)
        combinations = 0

        def search(order, tokens, usage, chosen):
            nonlocal best, combinations
            if not order:
                combinations += 1
                context.stats.candidates_evaluated += 1
                objective = context.objective.evaluate(
                    engine.trial_predictions(live, tokens))
                if objective < best[1] - 1e-12:
                    best = (chosen, objective)
                return
            (instance, state), rest = order[0], order[1:]
            for candidate in list(enumerate_candidates(
                    instance, state, context)):
                claimed = dict(usage)
                if not _memory_feasible(context.view, candidate, claimed):
                    continue
                with ViewTrial(context.view) as trial:
                    token = trial.place(instance.key, candidate.demands,
                                        candidate.assignment)
                    search(rest, tokens + [token], claimed,
                           {**chosen, instance.key: candidate})

        for order in permutations(per_app):
            search(order, [], {}, {})
        if not best[0] and per_app:
            raise AllocationError(
                "no feasible combination of the applications' "
                "configurations")
        return best[0], best[1], combinations


def _memory_feasible(view: SystemView, candidate: Candidate,
                     usage: dict[str, float]) -> bool:
    """Joint memory check across a combination under construction.

    Per-candidate matching verified memory against the *live* cluster, but a
    joint assignment must not oversubscribe a node across candidates.
    ``usage`` accumulates MB already claimed by earlier combo members.
    """
    cluster = view.cluster
    claims: dict[str, float] = {}
    for demand in candidate.demands.nodes:
        hostname = candidate.assignment.hostname_of(demand.local_name)
        granted = demand.memory_granted(candidate.memory_grants)
        claims[hostname] = claims.get(hostname, 0.0) + granted
    for hostname, claim in claims.items():
        node = cluster.node(hostname)
        total_free = node.memory.total_mb  # joint check from a blank slate
        if usage.get(hostname, 0.0) + claim > total_free + 1e-9:
            return False
    for hostname, claim in claims.items():
        usage[hostname] = usage.get(hostname, 0.0) + claim
    return True

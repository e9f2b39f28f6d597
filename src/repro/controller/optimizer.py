"""Option-setting optimizers (paper Section 4.3).

"Currently, we optimize one bundle at a time when adding new applications to
the system.  Bundles are evaluated in the same lexical order as they were
defined.  This is a simple form of greedy optimization that will not
necessarily produce a globally optimal value, but it is simple and easy to
implement."

:class:`GreedyOptimizer` is that algorithm: for one bundle it enumerates the
configuration space (options x variable assignments x elastic-memory
grants), matches each against the cluster, evaluates the global objective
with every *other* application held fixed, and returns the best candidate.
:class:`ExhaustiveOptimizer` searches the full cross-product of all
applications' configurations — exponential, provided for the ablation
benchmark quantifying the greedy gap.

Candidates are scored by trial and rollback on the live view
(:class:`~repro.controller.trial.ViewTrial`), with predictions
delta-computed over the dirty set only
(:class:`~repro.controller.trial.TrialEngine`), and a
:class:`ConfigurationCache` memoizes each bundle's resolved configuration
space so re-evaluation sweeps and the pairwise pass stop re-instantiating
options.  The from-scratch scorer they are tested against (copy the view,
place the candidate, predict every application) lives with the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping

from repro.allocation.instantiate import (
    ConcreteDemands,
    InstantiationCache,
    NodeDemand,
    instantiate_option,
)
from repro.allocation.matcher import Assignment, Matcher, MatchPreparation
from repro.controller.objective import Objective
from repro.controller.registry import AppInstance, BundleState
from repro.controller.trial import OptimizerStats, TrialEngine, ViewTrial
from repro.errors import AllocationError, RslSemanticError
from repro.obs.trace import NULL_TRACER
from repro.prediction.contention import SystemView
from repro.rsl.expressions import MapEnvironment
from repro.rsl.model import Bundle, TuningOption

__all__ = ["Candidate", "OptimizationContext", "ConfigurationCache",
           "GreedyOptimizer", "ExhaustiveOptimizer", "enumerate_candidates"]

#: predict_all(view) -> {app_key: predicted seconds} for every placed app.
PredictAll = Callable[[SystemView], Mapping[str, float]]

#: Default cap on elastic-memory probe values per node demand (must match
#: ``OptimizationContext.memory_probe_limit``'s default — the partition
#: index keys cache peeks on it).
DEFAULT_MEMORY_PROBE_LIMIT = 3


@dataclass
class Candidate:
    """One concrete, matchable configuration of one bundle."""

    option_name: str
    variable_assignment: dict[str, float]
    memory_grants: dict[str, float]
    demands: ConcreteDemands
    assignment: Assignment
    objective_value: float = math.inf
    predicted_seconds: float = math.inf

    def clone(self) -> "Candidate":
        """An independent copy (own mutable dicts, shared frozen demands)."""
        return Candidate(
            option_name=self.option_name,
            variable_assignment=dict(self.variable_assignment),
            memory_grants=dict(self.memory_grants),
            demands=self.demands,
            assignment=self.assignment,
            objective_value=self.objective_value,
            predicted_seconds=self.predicted_seconds)

    def describe(self) -> str:
        parts = [self.option_name]
        if self.variable_assignment:
            parts.append(",".join(
                f"{k}={v:g}" for k, v in
                sorted(self.variable_assignment.items())))
        return ":".join(parts)


@dataclass
class OptimizationContext:
    """Everything an optimizer needs to score candidates."""

    view: SystemView              # all apps' current placements
    matcher: Matcher
    objective: Objective
    predict_all: PredictAll
    #: Delta prediction over the live view.
    engine: TrialEngine
    #: Memoized configuration spaces.
    cache: ConfigurationCache
    now: float = 0.0
    #: Cap on elastic-memory probe values per node demand.
    memory_probe_limit: int = DEFAULT_MEMORY_PROBE_LIMIT
    #: Work counters (candidates, recomputes); optional.
    stats: OptimizerStats | None = None
    #: Span recorder; the no-op singleton keeps tracing zero-cost-when-off.
    tracer: object = NULL_TRACER


def bundle_holder(instance: AppInstance, state: BundleState) -> str:
    """The allocation-holder id for one (instance, bundle) pair."""
    return f"{instance.key}:{state.bundle.bundle_name}"


@dataclass(frozen=True)
class ConfigurationEntry:
    """One pre-resolved configuration of a bundle, ready to match."""

    option: TuningOption
    variable_assignment: Mapping[str, float]
    grants: Mapping[str, float]
    demands: ConcreteDemands
    extra_memory: Mapping[str, float]


class ConfigurationCache:
    """Memoizes each bundle's resolved configuration space.

    A bundle's space — every (option, variable assignment, memory grants)
    triple with its instantiated demands — depends only on the RSL, never
    on cluster state, so it is computed once per bundle and reused by
    every enumeration: initial configuration, re-evaluation sweeps, the
    pairwise pass.  Only *matching* (which reads live reservations and
    load ordering) runs per call.

    The elastic-memory probe (:func:`_best_memory_for`) is memoized here
    too, and — when the probed grant cannot change the option's node
    structure — evaluated directly on the link/communication expressions
    instead of fully re-instantiating the option per probed value.
    """

    def __init__(self) -> None:
        self.instantiations = InstantiationCache()
        #: id(bundle) -> (the bundle, probe limit -> its space)
        self._spaces: dict[int, tuple[
            Bundle, dict[int, list[ConfigurationEntry]]]] = {}
        #: id(option) -> probe key -> best memory
        self._memory_probes: dict[int, dict[tuple, float | None]] = {}
        self.space_hits = 0
        self.space_misses = 0
        self.probe_hits = 0
        self.probe_misses = 0

    def snapshot(self) -> dict[str, int]:
        """Hit/miss counters, for the telemetry layer."""
        return {"space_hits": self.space_hits,
                "space_misses": self.space_misses,
                "probe_hits": self.probe_hits,
                "probe_misses": self.probe_misses}

    def space_for(self, bundle: Bundle,
                  probe_limit: int) -> list[ConfigurationEntry]:
        spaces = self._spaces.setdefault(id(bundle), (bundle, {}))[1]
        if probe_limit in spaces:
            self.space_hits += 1
            return spaces[probe_limit]
        self.space_misses += 1
        entries: list[ConfigurationEntry] = []
        for option in bundle.options:
            for variable_assignment in option.variable_assignments():
                try:
                    base = self.instantiations.instantiate(
                        option, variable_assignment)
                except RslSemanticError:
                    continue
                for grants in _memory_grant_choices(option, base,
                                                    probe_limit, cache=self):
                    try:
                        demands = base if not grants else \
                            self.instantiations.instantiate(
                                option, variable_assignment, grants=grants)
                    except RslSemanticError:
                        continue
                    entries.append(ConfigurationEntry(
                        option=option,
                        variable_assignment=dict(variable_assignment),
                        grants=dict(grants),
                        demands=demands,
                        extra_memory=_extra_memory(demands, grants)))
        spaces[probe_limit] = entries
        return entries

    def forget(self, bundle: Bundle) -> None:
        """Drop what is cached under a released bundle's object ids; a
        ``Bundle`` another live instance shares misses once, recomputes."""
        self._spaces.pop(id(bundle), None)
        for option in bundle.options:
            self.instantiations.forget(option)
            self._memory_probes.pop(id(option), None)

    def peek_space_len(self, bundle: Bundle, probe_limit: int) -> int:
        """Size of a bundle's cached space without computing it (0 when
        never enumerated).  Used for pruned-candidate accounting — a skip
        must not itself pay the enumeration it avoided."""
        hit = self._spaces.get(id(bundle))
        return len(hit[1].get(probe_limit, ())) \
            if hit is not None and hit[0] is bundle else 0

    def best_memory_for(self, option: TuningOption, base: ConcreteDemands,
                        demand: NodeDemand,
                        span_mb: float = 64.0) -> float | None:
        probes = self._memory_probes.setdefault(id(option), {})
        key = (tuple(sorted(base.variable_assignment.items())),
               demand.local_name, span_mb)
        if key in probes:
            self.probe_hits += 1
            return probes[key]
        self.probe_misses += 1
        grant_key = f"{demand.local_name}.memory"
        if _grant_affects_nodes(option, grant_key):
            best = _best_memory_for(option, base, demand, span_mb)
        else:
            best = _best_memory_by_expression(option, base, demand, span_mb)
        probes[key] = best
        return best


def enumerate_candidates(instance: AppInstance, state: BundleState,
                         context: OptimizationContext,
                         extra_ignore_holders: frozenset[str] = frozenset(),
                         ) -> Iterator[Candidate]:
    """Yield every matchable configuration of ``state``'s bundle.

    The application's own current reservations are ignored while matching
    (``ignore_holders``), so it can re-use the resources it currently
    holds.  Placements prefer the least CPU-loaded nodes as seen without
    this application, read from the context view's maintained load order
    with the application's own footprint subtracted, so no per-bundle
    view copy or sort is needed.
    """
    ignore = frozenset({bundle_holder(instance, state)}) \
        | extra_ignore_holders
    stats = context.stats
    with context.tracer.span("optimizer.configuration_space",
                             bundle=state.bundle.bundle_name) as span:
        entries = context.cache.space_for(state.bundle,
                                          context.memory_probe_limit)
        span.set("entries", len(entries))
    # Every configuration is matched against one unchanged state: one
    # preparation, ordered from the view's maintained order.
    prepared = MatchPreparation(ignore, load_order=partial(
        context.view.load_order, exclude_app=instance.key))
    for entry in entries:
        if stats is not None:
            stats.match_calls += 1
        try:
            assignment = context.matcher.match(
                entry.demands, extra_memory=entry.extra_memory,
                prepared=prepared)
        except AllocationError:
            continue
        yield Candidate(option_name=entry.option.name,
                        variable_assignment=dict(entry.variable_assignment),
                        memory_grants=dict(entry.grants),
                        demands=entry.demands,
                        assignment=assignment)


def _extra_memory(demands: ConcreteDemands,
                  grants: Mapping[str, float]) -> dict[str, float]:
    extra: dict[str, float] = {}
    for demand in demands.nodes:
        granted = grants.get(f"{demand.local_name}.memory")
        if granted is not None and granted > demand.memory_min_mb:
            extra[demand.local_name] = granted - demand.memory_min_mb
    return extra


def _memory_grant_choices(option: TuningOption, base: ConcreteDemands,
                          probe_limit: int, cache: ConfigurationCache,
                          ) -> Iterator[dict[str, float]]:
    """Enumerate elastic-memory grants worth considering.

    The controller gives extra memory only when it changes something it can
    see — i.e. when a link/communication expression depends on the node's
    memory (Figure 3's data-shipping bandwidth).  For each such node we probe
    integer memory values above the minimum and keep the earliest value that
    minimizes total traffic; the choices offered are then {minimum} and
    {minimum with that node boosted}.
    """
    yield {}
    dependent = _memory_dependent_demands(option, base)
    for demand in dependent[:probe_limit]:
        best = cache.best_memory_for(option, base, demand)
        if best is not None and best > demand.memory_min_mb:
            yield {f"{demand.local_name}.memory": best}


def _memory_dependent_demands(option: TuningOption, base: ConcreteDemands,
                              ) -> list[NodeDemand]:
    referenced: set[str] = set()
    for link in option.links:
        referenced |= link.megabytes.free_variables()
    if option.communication is not None:
        referenced |= option.communication.megabytes.free_variables()
    wanted = []
    for demand in base.nodes:
        if demand.memory_elastic and \
                f"{demand.local_name}.memory" in referenced:
            wanted.append(demand)
    return wanted


def _best_memory_for(option: TuningOption, base: ConcreteDemands,
                     demand: NodeDemand, span_mb: float = 64.0,
                     ) -> float | None:
    """Probe integer memory values; return the cheapest-traffic one."""
    low = int(math.ceil(demand.memory_min_mb))
    high = int(min(demand.memory_max_mb, demand.memory_min_mb + span_mb))
    best_memory: float | None = None
    best_traffic = math.inf
    key = f"{demand.local_name}.memory"
    for memory in range(low, high + 1):
        try:
            probed = instantiate_option(option, base.variable_assignment,
                                        grants={key: float(memory)})
        except RslSemanticError:
            continue
        traffic = probed.total_traffic_mb()
        if traffic < best_traffic - 1e-9:
            best_traffic = traffic
            best_memory = float(memory)
    return best_memory


def _grant_affects_nodes(option: TuningOption, grant_key: str) -> bool:
    """Whether a memory grant can alter the option's node demands.

    When a node's replicate count, CPU seconds, or memory bounds reference
    the granted name, probing it needs full re-instantiation; otherwise
    only link/communication expressions can change.
    """
    for requirement in option.nodes:
        for quantity in (requirement.replicate, requirement.seconds,
                         requirement.memory):
            if quantity is not None and \
                    grant_key in quantity.free_variables():
                return True
    return False


def _best_memory_by_expression(option: TuningOption, base: ConcreteDemands,
                               demand: NodeDemand, span_mb: float = 64.0,
                               ) -> float | None:
    """The memory probe without per-value re-instantiation.

    Valid only when the grant cannot affect node demands
    (:func:`_grant_affects_nodes` is false): the node set is then fixed,
    and total traffic is the sum of the link/communication expressions
    under an environment where only the probed grant varies.  Replicates
    the exhaustive probe's exact semantics — same scan range, same
    earliest-strict-improvement rule, same skip-on-semantic-error —
    and therefore returns the identical value.
    """
    low = int(math.ceil(demand.memory_min_mb))
    high = int(min(demand.memory_max_mb, demand.memory_min_mb + span_mb))
    key = f"{demand.local_name}.memory"
    env_values = dict(base.variable_assignment)
    for node in base.nodes:
        env_values.setdefault(f"{node.local_name}.memory",
                              node.memory_granted(None))
    best_memory: float | None = None
    best_traffic = math.inf
    for memory in range(low, high + 1):
        env_values[key] = float(memory)
        env = MapEnvironment(env_values)
        traffic = 0.0
        try:
            for link in option.links:
                total_mb = link.megabytes.value(env)
                if total_mb < 0:
                    raise RslSemanticError(
                        f"link {link.endpoint_a}-{link.endpoint_b}: "
                        f"negative traffic {total_mb}")
                traffic += total_mb
            if option.communication is not None:
                communication_mb = option.communication.megabytes.value(env)
                if communication_mb < 0:
                    raise RslSemanticError(
                        f"communication: negative traffic "
                        f"{communication_mb}")
                traffic += communication_mb
        except RslSemanticError:
            continue
        if traffic < best_traffic - 1e-9:
            best_traffic = traffic
            best_memory = float(memory)
    return best_memory


@dataclass
class OptimizationResult:
    """Best candidate found for one bundle, with search statistics.

    ``evaluated`` holds every scored candidate (``best`` is one of them,
    by identity) so decision traces can record the alternatives the
    winner beat.
    """

    best: Candidate | None
    candidates_evaluated: int = 0
    current_objective: float = math.inf
    evaluated: list[Candidate] = field(default_factory=list)


class GreedyOptimizer:
    """The paper's one-bundle-at-a-time greedy search.

    :meth:`optimize_pair` extends it with a joint search over *two* bundles
    at once.  Pure coordinate descent cannot reach the equal partitions of
    the paper's Figure 4(b) — from a (5 nodes, 3 nodes) split neither app
    improves alone, but (4, 4) is globally better — while a pairwise
    exchange pass finds them.  This is the concrete form of the paper's
    "allocation decisions that require running applications to be
    reconfigured".
    """

    def optimize_pair(self, first: tuple[AppInstance, BundleState],
                      second: tuple[AppInstance, BundleState],
                      context: OptimizationContext,
                      ) -> tuple[Candidate, Candidate, float] | None:
        """Jointly choose configurations for two bundles.

        Returns ``(candidate_first, candidate_second, objective)`` for the
        best feasible combination, or ``None`` when either side has no
        feasible candidate.
        """
        instance_a, state_a = first
        instance_b, state_b = second
        ignore = frozenset({bundle_holder(instance_a, state_a),
                            bundle_holder(instance_b, state_b)})
        engine = context.engine
        with context.tracer.span("optimizer.optimize_pair",
                                 first=instance_a.key,
                                 second=instance_b.key), \
                ViewTrial(context.view) as outer:
            live = engine.live_predictions()
            outer.remove(instance_a.key)
            outer.remove(instance_b.key)
            base_removed = engine.trial_predictions(live, outer.tokens)
            candidates_a = list(enumerate_candidates(
                instance_a, state_a, context, extra_ignore_holders=ignore))
            if not candidates_a:
                return None
            best: tuple[Candidate, Candidate, float] | None = None
            for cand_a in candidates_a:
                with ViewTrial(context.view) as with_a:
                    with_a.place(instance_a.key, cand_a.demands,
                                 cand_a.assignment)
                    base_a = engine.trial_predictions(base_removed,
                                                      with_a.tokens)
                    for cand_b in enumerate_candidates(
                            instance_b, state_b, context,
                            extra_ignore_holders=ignore):
                        if not _pair_memory_ok(context.view.cluster, ignore,
                                               cand_a, cand_b):
                            continue
                        if context.stats is not None:
                            context.stats.candidates_evaluated += 1
                        with ViewTrial(context.view) as with_b:
                            with_b.place(instance_b.key, cand_b.demands,
                                         cand_b.assignment)
                            predictions = engine.trial_predictions(
                                base_a, with_b.tokens)
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

    def optimize_bundle(self, instance: AppInstance, state: BundleState,
                        context: OptimizationContext) -> OptimizationResult:
        """Pick the configuration of this bundle minimizing the objective,
        holding every other application (and bundle) fixed."""
        with context.tracer.span("optimizer.optimize_bundle",
                                 app=instance.key,
                                 bundle=state.bundle.bundle_name) as span:
            engine = context.engine
            live = engine.live_predictions()
            current_objective = context.objective.evaluate(live)
            # What the view holds for this app (one slot, however many
            # bundles): trialling that very configuration would re-derive
            # ``live``, which the dirty-set contract says a recompute
            # returns.
            placed = context.view.configuration_of(instance.key)
            best: Candidate | None = None
            evaluated: list[Candidate] = []
            for candidate in enumerate_candidates(instance, state, context):
                evaluated.append(candidate)
                if placed is not None \
                        and candidate.demands == placed.demands \
                        and candidate.assignment == placed.assignment:
                    predictions = live
                    candidate.objective_value = current_objective
                else:
                    with ViewTrial(context.view) as trial:
                        trial.place(instance.key, candidate.demands,
                                    candidate.assignment)
                        predictions = engine.trial_predictions(
                            live, trial.tokens)
                    candidate.objective_value = context.objective.evaluate(
                        predictions)
                candidate.predicted_seconds = predictions.get(
                    instance.key, math.inf)
                if best is None or candidate.objective_value \
                        < best.objective_value - 1e-12:
                    best = candidate
            if context.stats is not None:
                context.stats.candidates_evaluated += len(evaluated)
            span.set("candidates_evaluated", len(evaluated))
            if best is not None:
                span.set("chosen", best.option_name)
            return OptimizationResult(best=best,
                                      candidates_evaluated=len(evaluated),
                                      current_objective=current_objective,
                                      evaluated=evaluated)


class ExhaustiveOptimizer:
    """Joint search over all applications' configurations (ablation only).

    Searches the cross-product of candidate lists, one per (instance,
    bundle).  ``max_combinations`` guards against explosion; the search
    raises when exceeded so callers notice rather than silently truncate.
    """

    def __init__(self, max_combinations: int = 200_000):
        self.max_combinations = max_combinations

    def optimize_all(self, instances: list[AppInstance],
                     context: OptimizationContext,
                     ) -> tuple[dict[str, Candidate], float, int]:
        """Returns (choice per app key, objective, combinations tried)."""
        per_app: list[tuple[AppInstance, BundleState, list[Candidate]]] = []
        for instance in instances:
            for state in instance.bundles.values():
                candidates = list(enumerate_candidates(
                    instance, state, context))
                if not candidates:
                    raise AllocationError(
                        f"{instance.key}: no feasible configuration for "
                        f"bundle {state.bundle.bundle_name!r}")
                per_app.append((instance, state, candidates))

        total = math.prod(len(c) for _, _, c in per_app) if per_app else 0
        if total > self.max_combinations:
            raise AllocationError(
                f"exhaustive search space {total} exceeds cap "
                f"{self.max_combinations}")

        engine = context.engine
        live = engine.live_predictions()
        best_choice: dict[str, Candidate] = {}
        best_objective = math.inf
        combinations = 0
        for combo in itertools.product(*(c for _, _, c in per_app)):
            combinations += 1
            feasible = True
            usage: dict[str, float] = {}
            for (_instance, _state, _), candidate in zip(per_app, combo):
                if not _memory_feasible(context.view, candidate, usage):
                    feasible = False
                    break
            if not feasible:
                continue
            if context.stats is not None:
                context.stats.candidates_evaluated += 1
            with ViewTrial(context.view) as trial:
                for (instance, _state, _), candidate in zip(per_app, combo):
                    trial.place(instance.key, candidate.demands,
                                candidate.assignment)
                predictions = engine.trial_predictions(live, trial.tokens)
            objective = context.objective.evaluate(predictions)
            if objective < best_objective - 1e-12:
                best_objective = objective
                best_choice = {
                    instance.key: candidate
                    for (instance, _s, _c), candidate in zip(per_app, combo)
                }
        return best_choice, best_objective, combinations


def _pair_memory_ok(cluster, ignore_holders: frozenset[str],
                    cand_a: Candidate, cand_b: Candidate) -> bool:
    """Joint memory check for a candidate pair against the live cluster.

    Each candidate matched individually (its own holder ignored); the pair
    must also fit *together*: per node, both claims plus everyone else's
    live reservations must not exceed total memory.
    """
    claims: dict[str, float] = {}
    for candidate in (cand_a, cand_b):
        for demand in candidate.demands.nodes:
            hostname = candidate.assignment.hostname_of(demand.local_name)
            granted = demand.memory_granted(candidate.memory_grants)
            claims[hostname] = claims.get(hostname, 0.0) + granted
    for hostname, claim in claims.items():
        node = cluster.node(hostname)
        free = node.memory.available_mb
        for holder in ignore_holders:
            free += node.memory.held_by(holder)
        if claim > free + 1e-9:
            return False
    return True


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

"""The Harmony adaptation controller (paper Sections 2, 4 and 5).

"The adaptation controller is the heart of the system.  The controller must
gather relevant information about both the applications and the environment,
project the effects of proposed changes ... and weigh competing costs and
expected benefits of making various changes."

:class:`AdaptationController` ties everything together:

* applications register (:meth:`register_app`) and export bundles
  (:meth:`setup_bundle`), receiving a system-chosen instance id;
* the controller matches, allocates, and chooses configurations through a
  pluggable :class:`DecisionPolicy` — the default
  :class:`ModelDrivenPolicy` runs the paper's greedy objective optimization,
  :class:`~repro.controller.policies.ClientCountRulePolicy` reproduces the
  "simple rule" used for the paper's Figure 7 experiment;
* choices are published into the hierarchical namespace and pushed to
  reconfiguration listeners (the client library's variable mechanism);
* a periodic process re-evaluates all bundles "to adapt the system due to
  changes out of Harmony's control".
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.allocation.allocation import Allocation, allocate
from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment, Matcher
from repro.cluster.kernel import Interrupted, Process
from repro.cluster.topology import Cluster
from repro.controller.friction import FrictionPolicy
from repro.controller.objective import MeanResponseTime, Objective
from repro.controller.optimizer import (
    Candidate,
    ConfigurationCache,
    GreedyOptimizer,
    OptimizationContext,
    OptimizationResult,
    bundle_holder,
)
from repro.controller.partition import PartitionIndex, bundle_key
from repro.controller.registry import (
    AppInstance,
    ApplicationRegistry,
    BundleState,
    ChosenConfiguration,
)
from repro.controller.trial import OptimizerStats, TrialEngine
from repro.errors import AllocationError, ControllerError
from repro.metrics import MetricInterface
from repro.namespace import Namespace
from repro.obs.flightrec import FlightRecorder
from repro.obs.trace import (
    NULL_TRACER,
    REJECT_WORSE_OBJECTIVE,
    CandidateTrace,
    DecisionTrace,
    DecisionTraceLog,
)
from repro.prediction.contention import (
    PlacedConfiguration,
    PlacementFootprint,
    PlacementToken,
    SystemView,
)
from repro.prediction.models import (
    DefaultModel,
    ExplicitSpecModel,
    ExpressionSpecModel,
    PerformanceModel,
    model_for_spec,
)
from repro.rsl import Bundle, build_bundle

__all__ = ["AdaptationController", "ReconfigurationEvent",
           "ModelDrivenPolicy", "DecisionPolicy", "Move",
           "candidate_trace", "candidate_traces"]

#: One bundle's part of a decision: make ``candidate`` its configuration.
Move = tuple[AppInstance, BundleState, Candidate]

#: Seconds of collector samples that
#: :meth:`AdaptationController.update_external_load` averages into one
#: external-load reading.
EXTERNAL_LOAD_WINDOW_SECONDS = 60.0

#: Above this many configured bundles the quadratic pairwise pass is off.
MAX_PAIRWISE_BUNDLES = 12


@dataclass(frozen=True)
class ReconfigurationEvent:
    """Pushed to listeners when an application's choice changes."""

    time: float
    app_key: str
    bundle_name: str
    option_name: str
    variable_assignment: Mapping[str, float]
    placements: Mapping[str, str]
    memory_grants: Mapping[str, float]


class DecisionPolicy:
    """Strategy interface for choosing configurations."""

    def configure_new_bundle(self, controller: "AdaptationController",
                             instance: AppInstance, state: BundleState,
                             reason: str = "initial") -> None:
        """Place an unconfigured bundle; ``reason`` names the trigger in
        its decision trace and journal record."""
        raise NotImplementedError

    def reevaluate(self, controller: "AdaptationController") -> int:
        """Re-decide every bundle; returns the number of changes applied."""
        raise NotImplementedError


class ModelDrivenPolicy(DecisionPolicy):
    """The paper's objective-optimizing policy (Section 4.3).

    ``pairwise_exchange`` enables a joint two-bundle improvement pass after
    the per-bundle greedy sweep.  Coordinate descent alone cannot reach the
    equal partitions of the paper's Figure 4(b) (a (5, 3) node split is a
    local optimum even when (4, 4) is globally better); the pairwise pass
    realizes the paper's "allocation decisions that require running
    applications to be reconfigured".
    """

    def __init__(self, optimizer: GreedyOptimizer | None = None,
                 pairwise_exchange: bool = True):
        self.optimizer = optimizer or GreedyOptimizer()
        self.pairwise_exchange = pairwise_exchange

    def configure_new_bundle(self, controller: "AdaptationController",
                             instance: AppInstance, state: BundleState,
                             reason: str = "initial") -> None:
        result = self.optimizer.optimize_bundle(
            instance, state, controller.optimization_context())
        if result.best is None:
            raise AllocationError(
                f"{instance.key}: no feasible configuration for bundle "
                f"{state.bundle.bundle_name!r}")
        controller.commit(
            [(instance, state, result.best)],
            reason=reason,
            objective_before=result.current_objective,
            trace_candidates=candidate_traces(
                controller, state, result.evaluated, result.best,
                result.current_objective))

    def reevaluate(self, controller: "AdaptationController") -> int:
        changes = self._sweep_partitioned(controller)
        if self.pairwise_exchange:
            # Every pair is still a candidate, across partitions too: a
            # single-bundle gain the friction gate rejected can pass as
            # half of a pair, whose friction amortizes over the *faster*
            # of the two responses.  What the pass leaves out is only
            # the pairs records prove cannot gain at all.
            changes += self._pairwise_pass(controller)
        return changes

    def _sweep_partitioned(self, controller: "AdaptationController") -> int:
        """Registry-order sweep with per-bundle clean-skip.

        "we simply iterate through the list of active applications and
        within each application through the list of options" — records
        only decide *skips*, never ordering, so the decision traces are
        byte-identical to the same loop with pruning off (the serial
        oracle).  A bundle is neither matched nor scored while the record
        of its latest stable no-op, or the one that record displaced,
        holds over its scan and reads (see
        :class:`~repro.controller.partition.PartitionIndex`), and matched
        and scored otherwise.  One ``optimizer.sweep`` span counts what
        the sweep evaluated, changed and pruned.
        """
        index = controller.partition_index
        stats = controller.stats
        stats.partition_sweeps += 1
        prune = index.prunable(controller.objective)
        tracer = controller.tracer
        start = tracer.elapsed()
        changes = evaluated = pruned = 0
        for instance in controller.registry.instances():
            for state in instance.bundles.values():
                if prune and index.holds(bundle_key(instance, state), state):
                    stats.pruned_bundles += 1
                    stats.pruned_candidates += index.candidate_count(state)
                    pruned += 1
                    continue
                evaluated += 1
                if self._reevaluate_bundle_outcome(controller, instance,
                                                   state):
                    changes += 1
        if tracer.enabled:
            tracer.record_span(
                "optimizer.sweep", start, tracer.elapsed() - start,
                evaluated=evaluated, changes=changes, pruned=pruned)
        return changes

    def _pairwise_pass(self, controller: "AdaptationController") -> int:
        """One joint-improvement sweep over the bundle pairs.

        Pairs are visited in registry order.  Where pruning is sound
        (:meth:`PartitionIndex.prunable`) a pair that provably cannot
        gain is not searched; with pruning off the pass searches them all,
        the oracle the skips are tested against:

        * Two bundles of different components over shared reach
          (:meth:`PartitionIndex.components`) share nothing, so their
          joint score separates: when each one's own best gains nothing
          (:func:`_at_optimum`), no joint move gains, and the friction
          gate rejects a gain <= 0 on its sign alone.  A bundle's record
          proves exactly that; one that does not hold is re-derived with
          one ``optimize_bundle`` (nothing applied), which writes the
          record when it is at its optimum.
        * A component whose every internal pair ended a pass in such a
          sign-only no-op stays settled while its record holds
          (:meth:`PartitionIndex.settled`).
        """
        entries: list[tuple] = []
        for instance in controller.registry.instances():
            for state in instance.bundles.values():
                if state.chosen is not None:
                    entries.append((instance, state))
        if len(entries) < 2 or len(entries) > MAX_PAIRWISE_BUNDLES:
            return 0
        stats = controller.stats
        index = controller.partition_index
        scoped = index.prunable(controller.objective)
        keys = [bundle_key(*entry) for entry in entries] if scoped else []
        components = index.components(
            (key, state) for key, (_, state) in zip(keys, entries))
        part_of = {key: part for part in components for key in part[0]}
        parts = [part_of[key] for key in keys]
        since = index.now()
        #: Components with an internal pair that ended in anything but a
        #: sign-only no-op this pass.
        unsettled: set = set()

        def at_optimum(which: int) -> bool:
            instance, state = entries[which]
            if index.holds(keys[which], state):
                return True
            result = self.optimizer.optimize_bundle(
                instance, state, controller.optimization_context())
            if not _at_optimum(state, result):
                return False
            index.note_no_op(keys[which], state, result.reads)
            return True

        changes = 0
        now = controller.now
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                first, second = entries[i], entries[j]
                shared = parts[i] if scoped and parts[i] is parts[j] \
                    else None
                if not (first[1].granularity_allows_switch(now)
                        and second[1].granularity_allows_switch(now)):
                    if shared is not None:
                        unsettled.add(shared)
                    continue
                if shared is not None:
                    skip = index.settled(shared)
                else:
                    skip = scoped and at_optimum(i) and at_optimum(j)
                if skip:
                    stats.pruned_pairs += 1
                    continue
                stats.pairs_evaluated += 1
                context = controller.optimization_context()
                current = controller.current_objective()
                best = self.optimizer.optimize_pair(first, second, context)
                if best is None:
                    continue
                cand_a, cand_b, objective = best
                if _same_configuration(first[1], cand_a) and \
                        _same_configuration(second[1], cand_b):
                    continue
                friction = (
                    controller.friction_cost(first[1], cand_a.option_name)
                    + controller.friction_cost(second[1],
                                               cand_b.option_name))
                decision = controller.friction_policy.evaluate(
                    current_objective=current,
                    candidate_objective=objective,
                    friction_cost_seconds=friction,
                    candidate_response_seconds=min(
                        cand_a.predicted_seconds, cand_b.predicted_seconds))
                if not decision:
                    if shared is not None and decision.objective_gain > 0:
                        unsettled.add(shared)
                    continue
                moves = [(instance, state, candidate)
                         for (instance, state), candidate
                         in ((first, cand_a), (second, cand_b))
                         if not _same_configuration(state, candidate)]
                controller.commit(moves, reason="pairwise exchange",
                                  objective_before=current)
                changes += len(moves)
        for part in components:
            # A commit during the pass stamped past ``since``, so the
            # record it writes then never holds.
            if part not in unsettled and not index.settled(part):
                index.settle(part, since)
        return changes

    def _reevaluate_bundle_outcome(
            self, controller: "AdaptationController",
            instance: AppInstance, state: BundleState) -> bool:
        """Evaluate one bundle; returns whether it changed.

        Where pruning is sound, a *stable* no-op writes the bundle's
        record: one that would recur whatever happens outside what this
        evaluation read — for a decomposable objective.  Only outcomes
        decided by a sign are: no feasible candidate (or no
        configuration), best equals current (candidate ranking is
        invariant under equal shifts), and rejection with gain <= 0.
        Every other rejection weighs the *size* of the gain, and under a
        mean that is a sum divided by the number of applications
        anywhere: an arrival or departure elsewhere rescales it past a
        hysteresis threshold (whose denominator is the global objective
        besides) or a friction amortisation alike.  Granularity-blocked
        outcomes depend on the clock.
        """
        index = controller.partition_index
        key = bundle_key(instance, state)
        prune = index.prunable(controller.objective)
        if state.chosen is None:
            if prune:
                index.note_no_op(key, state)
            return False
        if not state.granularity_allows_switch(controller.now):
            return False
        result = self.optimizer.optimize_bundle(
            instance, state, controller.optimization_context())
        best = result.best
        if best is None or _same_configuration(state, best):
            if prune:
                index.note_no_op(key, state, result.reads)
            return False
        with controller.tracer.span("controller.friction_gate",
                                    app=instance.key) as span:
            friction_cost = controller.friction_cost(state,
                                                     best.option_name)
            decision = controller.friction_policy.evaluate(
                current_objective=result.current_objective,
                candidate_objective=best.objective_value,
                friction_cost_seconds=friction_cost,
                candidate_response_seconds=best.predicted_seconds)
            span.set("friction_cost_seconds", friction_cost)
            span.set("worthwhile", bool(decision))
        if not decision:
            if prune and decision.objective_gain <= 0:
                index.note_no_op(key, state, result.reads)
            return False
        controller.commit(
            [(instance, state, best)],
            reason=f"reevaluation (gain {decision.objective_gain:.3g}s, "
                   f"friction {friction_cost:.3g}s)",
            objective_before=result.current_objective,
            trace_candidates=candidate_traces(
                controller, state, result.evaluated, best,
                result.current_objective))
        return True


def candidate_traces(controller: "AdaptationController", state: BundleState,
                     evaluated: Sequence[Candidate],
                     best: Candidate,
                     objective_before: float,
                     ) -> list[CandidateTrace]:
    """Trace records for one optimizer sweep's evaluated candidates.

    The winner (by identity) gets ``rejection_reason=None``; every other
    candidate is marked :data:`REJECT_WORSE_OBJECTIVE` with the losing
    margin spelled out in ``detail``.
    """
    records: list[CandidateTrace] = []
    for candidate in evaluated:
        if candidate is best:
            reason, detail = None, ""
        else:
            reason = REJECT_WORSE_OBJECTIVE
            detail = (f"objective {candidate.objective_value:.6g}s vs "
                      f"winner {best.objective_value:.6g}s")
        records.append(candidate_trace(controller, state, candidate,
                                       objective_before, reason, detail))
    return records


def candidate_trace(controller: "AdaptationController", state: BundleState,
                    candidate: Candidate, objective_before: float,
                    rejection_reason: str | None,
                    detail: str) -> CandidateTrace:
    """The trace record of one scored candidate of ``state``'s bundle:
    the chosen one when it carries no ``rejection_reason``."""
    return CandidateTrace(
        option_name=candidate.option_name,
        variable_assignment=dict(candidate.variable_assignment),
        placements=dict(candidate.assignment.placements),
        predicted_seconds=candidate.predicted_seconds,
        objective_value=candidate.objective_value,
        objective_delta=candidate.objective_value - objective_before,
        friction_cost_seconds=controller.friction_cost(
            state, candidate.option_name),
        chosen=rejection_reason is None,
        rejection_reason=rejection_reason,
        detail=detail)


def _at_optimum(state: BundleState, result: OptimizationResult) -> bool:
    """Whether no configuration of this bundle alone gains anything: the
    outcomes ``_reevaluate_bundle_outcome`` calls stable."""
    best = result.best
    return (best is None or _same_configuration(state, best)
            or result.current_objective - best.objective_value <= 0)


def _held_hosts(chosen: Iterable[ChosenConfiguration | None]) -> set[str]:
    """The hosts these configurations' allocations hold memory on."""
    return {hostname for each in chosen if each is not None
            for hostname in each.assignment.hostnames()}


def _same_configuration(state: BundleState, candidate: Candidate) -> bool:
    """Whether a candidate equals the bundle's current configuration."""
    chosen = state.chosen
    return (chosen is not None
            and chosen.option_name == candidate.option_name
            and chosen.variable_assignment == candidate.variable_assignment
            and chosen.assignment.placements
            == candidate.assignment.placements)


class AdaptationController:
    """Central resource manager for a simulated Harmony deployment."""

    def __init__(self, cluster: Cluster,
                 metrics: MetricInterface | None = None,
                 objective: Objective | None = None,
                 policy: DecisionPolicy | None = None,
                 friction_policy: FrictionPolicy | None = None,
                 reevaluation_period_seconds: float = 30.0,
                 tracer=None):
        self.cluster = cluster
        self.metrics = metrics or MetricInterface()
        #: Span recorder (pass a Tracer to profile; the no-op default
        #: keeps instrumented call sites zero-cost).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Always-on bounded log of per-reconfiguration decision traces.
        self.trace_log = DecisionTraceLog()
        #: Always-on bounded ring of recent runtime events (RPCs,
        #: faults, session lifecycle, batches, WAL appends) and the
        #: controller's only event history; dumped to JSONL on demand,
        #: on unhandled server errors, and from failing chaos suites.
        #: The capacity bound keeps it safe to leave on.
        self.flight_recorder = FlightRecorder()
        self.namespace = Namespace()
        self.objective = objective or MeanResponseTime()
        self.policy = policy or ModelDrivenPolicy()
        self.friction_policy = friction_policy or FrictionPolicy()
        self.default_model = DefaultModel()
        self.matcher = Matcher(cluster)
        self.registry = ApplicationRegistry(namespace=self.namespace)
        self.view = SystemView(cluster)
        self.reevaluation_period_seconds = reevaluation_period_seconds
        #: Work counters for the benchmarks (see OptimizerStats).
        self.stats = OptimizerStats()
        self._engine = TrialEngine(self)
        self._config_cache = ConfigurationCache()
        #: Lets sweeps skip provably-unaffected bundles.
        self.partition_index = PartitionIndex(self)
        #: app key -> option name -> (its bundle, its spec-derived model).
        self._model_cache: dict[str, dict[str, tuple]] = {}
        self._listeners: list[Callable[[ReconfigurationEvent], None]] = []
        self._reevaluation_process: Process | None = None
        #: Durability journal (``repro.persistence``): ``None`` keeps the
        #: controller purely in-memory; attach a
        #: :class:`~repro.persistence.journal.DurabilityJournal` to WAL
        #: every state-changing event.  Set by ``journal.attach()``.
        self.journal = None
        #: The :class:`~repro.persistence.recovery.RecoveryReport` of the
        #: :meth:`restore` call that built this controller, if any.
        self.last_recovery = None
        #: Replication fencing term: 0 for an unreplicated controller;
        #: otherwise the monotonically increasing election counter from
        #: the shared fencing record (journaled as ``term`` WAL records,
        #: stamped on every wire reply).  Set by
        #: :meth:`~repro.persistence.replication.FencingStore.acquire`
        #: holders via :meth:`note_term` and restored by replay.
        self.term = 0
        #: Coalescing reevaluation scheduler
        #: (:class:`~repro.controller.scheduler.CoalescingScheduler`):
        #: ``None`` keeps every trigger synchronous (the serial oracle);
        #: constructing a scheduler for this controller attaches it here
        #: and re-routes :meth:`request_reevaluation` through it.
        self.scheduler = None

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "AdaptationController":
        """Rebuild a journaled controller from its durability directory.

        Loads the newest valid snapshot, deterministically replays the
        WAL tail, re-attaches the journal, and returns the controller
        with ``last_recovery`` describing what was done.  Keyword
        arguments are forwarded to
        :func:`repro.persistence.recovery.restore_controller` — pass the
        same policy/objective/model collaborators the crashed process
        used.
        """
        from repro.persistence.recovery import restore_controller
        return restore_controller(directory, **kwargs)

    def _checkpoint(self) -> None:
        """Operation boundary: let the journal snapshot if it is due."""
        if self.journal is not None:
            self.journal.checkpoint_if_due()

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.cluster.now

    # -- application lifecycle (the Figure 5 API, controller side) ----------

    def register_app(self, app_name: str,
                     resume_key: str | None = None) -> AppInstance:
        """``harmony_startup``: register and assign an instance id.

        ``resume_key`` supports reconnect-and-reregister: a rejoining
        client passes its previous ``app.instance`` key, and if that
        instance is still registered the registry returns it unchanged
        (no duplicate registration, allocations intact).
        """
        with self.tracer.span("controller.register", app=app_name) as span:
            instance = self.registry.register(app_name, self.now,
                                              resume_key=resume_key)
            resumed = resume_key is not None and instance.key == resume_key
            span.set("key", instance.key)
            span.set("resumed", resumed)
            self._record_lifecycle(
                "rejoined" if resumed else "registered", instance.key,
                detail="resumed within lease" if resumed else "")
            if not resumed:
                self.metrics.report("controller.registered_apps", self.now,
                                    float(len(self.registry)))
            if self.journal is not None:
                self.journal.record_register(instance, resumed, resume_key)
                self._checkpoint()
            return instance

    def setup_bundle(self, instance: AppInstance,
                     bundle: Bundle | str) -> BundleState:
        """``harmony_bundle_setup``: export a bundle and configure it.

        Accepts RSL text or a prebuilt :class:`Bundle`.  Runs the initial
        optimization for the new bundle, then re-evaluates every existing
        application — the paper's add-new-application procedure.

        Replaying an already-exported bundle (a client resuming after a
        reconnect) is idempotent: if the instance has a configured bundle
        of the same name offering the same options, its live state is
        returned without re-optimizing.
        """
        rsl_text = bundle if isinstance(bundle, str) else None
        if isinstance(bundle, str):
            bundle = build_bundle(bundle)
        with self.tracer.span("controller.setup_bundle",
                              app=instance.key,
                              bundle=bundle.bundle_name):
            existing = instance.bundles.get(bundle.bundle_name)
            if existing is not None:
                if existing.bundle.option_names() != bundle.option_names():
                    raise ControllerError(
                        f"{instance.key}: bundle {bundle.bundle_name!r} "
                        f"replayed with different options")
                if existing.chosen is None:
                    # The replay found the bundle unconfigured (stranded by
                    # a failure): try to place it again.
                    self.policy.configure_new_bundle(self, instance,
                                                     existing)
                    self.request_reevaluation(
                        f"bundle_replayed:{instance.key}")
                self._checkpoint()
                return existing
            state = self.add_bundle(instance, bundle)
            if self.journal is not None:
                if rsl_text is None:
                    from repro.rsl import unparse_bundle
                    rsl_text = unparse_bundle(bundle)
                self.journal.record_setup_bundle(
                    instance.key, bundle.bundle_name, rsl_text)
            self.policy.configure_new_bundle(self, instance, state)
            self.request_reevaluation(f"bundle_setup:{instance.key}")
        self.report_work_counters()
        self._checkpoint()
        return state

    def end_app(self, instance: AppInstance) -> None:
        """``harmony_end``: release resources and re-evaluate the rest."""
        self._release_app(instance, kind="ended", detail="clean shutdown")

    def evict_app(self, instance: AppInstance,
                  reason: str = "lease expired") -> None:
        """Forcibly remove a dead application and re-optimize survivors.

        The fault-tolerance half of :meth:`end_app`: invoked by the API
        server when a session's lease lapses.  The placement is removed
        through the transactional :class:`SystemView` (so the prediction
        cache stays coherent), allocations are released, the namespace
        subtree is deleted, survivors are re-evaluated, and one
        ``evicted`` flight event records it; the ``controller.evictions``
        counter counts it.
        """
        with self.tracer.span("controller.evict", app=instance.key,
                              reason=reason):
            self._release_app(instance, kind="evicted", detail=reason)
        self.metrics.increment("controller.evictions", self.now)

    def _release_app(self, instance: AppInstance, kind: str,
                     detail: str) -> None:
        """Shared clean/forced removal path."""
        if self.journal is not None:
            # Journaled before the survivors re-optimize, so the release
            # precedes any reconfiguration records that reuse its space.
            self.journal.record_release(instance.key, kind, detail)
        # Advance the prediction cache by the departure's dirty set, and
        # stamp every host the app's bundles release memory on.
        self._engine.commit([self.view.remove(instance.key)],
                            held=_held_hosts(state.chosen for state
                                             in instance.bundles.values()))
        self.registry.remove(instance)
        # Instance keys are never reused, so its cached models and its
        # metric series are dead; so is everything cached under its
        # bundles' object ids.
        self.metrics.forget(f"controller.{instance.key}")
        for state in instance.bundles.values():
            self._config_cache.forget(state.bundle)
        self._model_cache.pop(instance.key, None)
        self.partition_index.remove_app(instance.key)
        self._record_lifecycle(kind, instance.key, detail=detail)
        self.metrics.report("controller.registered_apps", self.now,
                            float(len(self.registry)))
        self.request_reevaluation(f"{kind}:{instance.key}")
        self._checkpoint()

    def request_reevaluation(self, reason: str) -> int | None:
        """One reevaluation trigger: coalesced when a scheduler is
        attached, inline otherwise.

        The inline path is the paper's original behaviour (every
        application event reevaluates the whole system synchronously)
        and doubles as the serial oracle the batched controller is
        tested against.  Returns the covering scheduler generation, or
        ``None`` when the sweep already ran inline.
        """
        if self.scheduler is not None:
            # Hand the scheduler the current trace context so the batch
            # span can link every coalesced trigger back to its request
            # (None when tracing is off or no span is open here).
            return self.scheduler.request(
                reason, trace_ctx=self.tracer.current_context())
        self.policy.reevaluate(self)
        return None

    def _record_lifecycle(self, kind: str, app_key: str,
                          detail: str = "") -> None:
        """One session transition as a flight event; ``sim_time`` is
        the controller's clock, the event's ``time`` the wall clock."""
        self.flight_recorder.record(kind, client=app_key, detail=detail,
                                    sim_time=self.now)

    def register_model(self, instance: AppInstance, bundle_name: str,
                       model: PerformanceModel,
                       model_name: str | None = None) -> None:
        """Attach an explicit prediction model (the TCL-script analogue).

        Models are opaque callables the durability layer cannot
        serialize, so a journaled controller requires ``model_name`` — a
        key into the journal's ``model_registry`` under which the *same*
        model object is supplied again at restore time.
        """
        if self.journal is not None:
            if model_name is None:
                raise ControllerError(
                    f"{instance.key}: a journaled controller registers "
                    f"models by name — pass model_name= (and list it in "
                    f"the journal's model_registry)")
            self.journal.record_model(instance.key, bundle_name, model_name)
        self.attach_model(instance, bundle_name, model)
        self._checkpoint()

    # -- state edits, shared by the live operations (after they decide)
    # and by replay, a standby and snapshot load (given the logged result).

    def add_bundle(self, instance: AppInstance,
                   bundle: Bundle) -> BundleState:
        """Register an unconfigured bundle."""
        return self.registry.add_bundle(instance, bundle)

    def attach_model(self, instance: AppInstance, key: str,
                     model: PerformanceModel) -> None:
        """Make ``model`` the explicit model of the bundle named ``key``."""
        instance.models[key] = model
        # Custom models can read anything: drop cached predictions, which
        # moves the engine epoch past every record.
        self._engine.invalidate()

    def place_configuration(self, instance: AppInstance,
                            state: BundleState, candidate: Candidate,
                            chosen_at: float) -> PlacementToken:
        """Allocate and install ``candidate`` outside any decision (a
        snapshot load); :class:`AllocationError`, changing nothing, if it
        does not fit."""
        return self.install(
            instance, state, candidate,
            self._allocate(instance, state, candidate.demands,
                           candidate.assignment, candidate.memory_grants),
            chosen_at)

    def install(self, instance: AppInstance, state: BundleState,
                candidate: Candidate, allocation: Allocation,
                chosen_at: float) -> PlacementToken:
        """Make an allocated ``candidate`` the bundle's configuration: its
        ``chosen``, view placement and namespace entry."""
        state.chosen = ChosenConfiguration(
            option_name=candidate.option_name,
            variable_assignment=dict(candidate.variable_assignment),
            demands=candidate.demands,
            assignment=candidate.assignment,
            allocation=allocation,
            predicted_seconds=candidate.predicted_seconds,
            chosen_at=chosen_at)
        token = self.view.place(instance.key, candidate.demands,
                                candidate.assignment)
        self.registry.publish_choice(instance, state.bundle.bundle_name,
                                     memory_grants=candidate.memory_grants)
        return token

    def _allocate(self, instance: AppInstance, state: BundleState,
                  demands: ConcreteDemands, assignment: Assignment,
                  memory_grants: Mapping[str, float]) -> Allocation:
        return allocate(self.cluster, demands, assignment,
                        memory_grants=memory_grants,
                        predicted_duration_seconds=None,
                        holder=bundle_holder(instance, state))

    def unconfigure(self, instance: AppInstance, state: BundleState) -> None:
        """Release a bundle's allocation and take it out of the view:
        explicitly unconfigured (``chosen is None``), predicted by none."""
        chosen = state.chosen
        if chosen is None:
            return
        chosen.allocation.release()
        state.chosen = None
        self._engine.commit([self.view.remove(instance.key)],
                            held=chosen.assignment.hostnames())

    def fail_node(self, hostname: str,
                  ) -> list[tuple[AppInstance, BundleState,
                                  ChosenConfiguration]]:
        """Fail a machine; unconfigure every bundle on it and return
        ``(instance, state, old configuration)`` for each, in registry
        order.  All come off before any is re-placed: a bundle on a dead
        node is not running, and a standby applying records as they
        arrive can reproduce only this order."""
        self.cluster.node(hostname).fail()
        # Availability changed without a topology-version bump: every
        # record whose match could place a demand there stops holding.
        self._engine.stamp([hostname])
        displaced = []
        for instance in self.registry.instances():
            for state in instance.bundles.values():
                chosen = state.chosen
                if chosen is not None and \
                        hostname in chosen.assignment.hostnames():
                    displaced.append((instance, state, chosen))
                    self.unconfigure(instance, state)
        self.metrics.increment("controller.node_failures", self.now)
        return displaced

    def restore_node(self, hostname: str) -> None:
        """Bring a failed machine back; nothing is re-placed on it until
        a sweep runs."""
        self.cluster.node(hostname).restore()
        self._engine.stamp([hostname])

    # -- reconfiguration plumbing -------------------------------------------

    def add_listener(self, listener: Callable[[ReconfigurationEvent], None],
                     ) -> Callable[[], None]:
        """Subscribe to configuration changes (used by the client library)."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def commit(self, moves: Sequence[Move], reason: str,
               objective_before: float = math.inf,
               trace_candidates: Sequence[CandidateTrace] | None = None,
               ) -> float:
        """Make each move's candidate the live configuration of its
        bundle, all or nothing: one decision, of one bundle or several.

        Every old allocation is released before any new one is made, so
        the bundles of an exchange may move into each other's space.  If
        a new one does not fit, the new ones are released, the old ones
        reserved again and :class:`AllocationError` raised with nothing
        else touched.  Otherwise every move is installed, the prediction
        cache advances once, each move gets its decision trace, the
        journal gets one record — the commit point — and listeners hear
        of each changed option in move order.  Returns the objective
        after the decision.

        ``trace_candidates`` carries a one-move decision's evaluated
        alternatives; when omitted, each trace lists its chosen candidate
        alone.
        """
        now = self.now
        olds = [state.chosen for _, state, _ in moves]
        for old in olds:
            if old is not None:
                old.allocation.release()
        allocations: list[Allocation] = []
        try:
            for instance, state, candidate in moves:
                allocations.append(self._allocate(
                    instance, state, candidate.demands,
                    candidate.assignment, candidate.memory_grants))
        except AllocationError:
            for allocation in allocations:
                allocation.release()
            for (instance, state, _), old in zip(moves, olds):
                if old is not None:
                    # They all held this space a moment ago.
                    old.allocation = self._allocate(
                        instance, state, old.demands, old.assignment,
                        old.allocation.memory_grants())
            raise
        tokens = []
        switched = []
        for (instance, state, candidate), old, allocation in zip(
                moves, olds, allocations):
            tokens.append(self.install(instance, state, candidate,
                                       allocation, chosen_at=now))
            switched.append(
                old is None or old.option_name != candidate.option_name
                or old.variable_assignment != candidate.variable_assignment)
            if switched[-1]:
                state.last_switch_time = now
                state.switch_count += 1

        # Advance the prediction cache by these placements' delta instead
        # of recomputing the whole system; stamp the hosts every old and
        # new allocation holds memory on.
        self._engine.commit(tokens, held=_held_hosts(
            [*olds, *(state.chosen for _, state, _ in moves)]))
        objective_after = self.objective.evaluate(
            self._engine.live_predictions())
        for (instance, state, candidate), old in zip(moves, olds):
            alternatives = trace_candidates
            if alternatives is None:
                alternatives = [candidate_trace(self, state, candidate,
                                                objective_before, None, "")]
            self.trace_log.record(DecisionTrace(
                time=now, app_key=instance.key,
                bundle_name=state.bundle.bundle_name,
                trigger=reason,
                objective_before=objective_before,
                objective_after=objective_after,
                chosen_option=candidate.option_name,
                chosen_placements=dict(candidate.assignment.placements),
                candidates=tuple(alternatives),
                old_configuration=old.describe() if old else None,
                new_configuration=state.chosen.describe()))
            option_index = state.bundle.option_names().index(
                candidate.option_name)
            self.metrics.report(
                f"controller.{instance.key}.{state.bundle.bundle_name}"
                f".option", now, float(option_index))
            self.metrics.report("controller.objective", now,
                                objective_after)
        if self.journal is not None:
            # The append is this decision's commit point: replay re-applies
            # the recorded result and verifies it reproduces
            # ``objective_after`` exactly.
            self.journal.record_commit(moves, reason, objective_before,
                                       objective_after)

        for (instance, state, candidate), changed in zip(moves, switched):
            if not changed:
                continue
            event = ReconfigurationEvent(
                time=now, app_key=instance.key,
                bundle_name=state.bundle.bundle_name,
                option_name=candidate.option_name,
                variable_assignment=dict(candidate.variable_assignment),
                placements=dict(candidate.assignment.placements),
                memory_grants=state.chosen.allocation.memory_grants())
            for listener in list(self._listeners):
                listener(event)
        return objective_after

    def friction_cost(self, state: BundleState,
                      target_option_name: str) -> float:
        """Cost of switching this bundle into ``target_option_name``."""
        if state.chosen is not None and \
                state.chosen.option_name == target_option_name:
            return 0.0
        option = state.bundle.option_named(target_option_name)
        if option.friction is None:
            return 0.0
        return option.friction.cost()

    # -- prediction ----------------------------------------------------------

    def predict_all(self, view: SystemView) -> dict[str, float]:
        """Predicted response seconds for every placed application."""
        self.stats.full_view_recomputes += 1
        predictions: dict[str, float] = {}
        for placed in view.configurations():
            value = self.predict_app(view, placed)
            if value is not None:
                predictions[placed.app_key] = value
        return predictions

    def predict_app(self, view: SystemView,
                    placed: PlacedConfiguration) -> float | None:
        """One placed application's predicted response seconds.

        Returns ``None`` when the application is no longer registered
        (it ended while the optimizer was exploring).
        """
        instance = self.registry.find(placed.app_key)
        if instance is None:
            return None
        model = self._model_for(instance, placed.demands.option_name)
        self.stats.predictions_recomputed += 1
        return model.predict(placed.demands, placed.assignment, view,
                             app_key=placed.app_key)

    def _model_for(self, instance: AppInstance,
                   option_name: str) -> PerformanceModel:
        """Resolve an option's model: the one registered for its bundle,
        else its RSL spec's.

        Resolving through the RSL spec constructs a fresh model object;
        those are stateless, so one per (instance, option), cached with
        the option's bundle, suffices.  ``instance.models`` is read on
        every call — it is the live source of truth.
        """
        options = self._model_cache.get(instance.key)
        if options is None:
            options = self._model_cache[instance.key] = {}
        entry = options.get(option_name)
        if entry is None:
            bundle_name = instance.bundle_of_option(option_name)
            option = instance.bundles[bundle_name].bundle.option_named(
                option_name)
            entry = options[option_name] = (bundle_name, model_for_spec(
                option.performance, default=self.default_model))
        bundle_name, model = entry
        if instance.models:
            return instance.models.get(bundle_name, model)
        return model

    def model_is_footprint_safe(self,
                                placed: PlacedConfiguration) -> bool:
        """Whether delta prediction may cache this application's value.

        True only for the built-in models whose reads are covered by the
        placement footprint (own nodes' CPU contention, own traffic's link
        contention).  Custom callables and any subclass are opaque: they
        are recomputed on every trial.
        """
        instance = self.registry.find(placed.app_key)
        if instance is None:
            return True  # never predicted, so never cached
        model = self._model_for(instance, placed.demands.option_name)
        return type(model) in (DefaultModel, ExplicitSpecModel,
                               ExpressionSpecModel)

    def live_predictions(self) -> dict[str, float]:
        """The prediction cache: :meth:`predict_all` of the live view,
        rebuilt only when stale.  The caller must not mutate it."""
        return self._engine.live_predictions()

    def current_objective(self) -> float:
        """The objective over the live view, from the prediction cache."""
        return self.objective.evaluate(self._engine.live_predictions())

    def optimization_context(self) -> OptimizationContext:
        return OptimizationContext(
            view=self.view, matcher=self.matcher,
            objective=self.objective, predict_all=self.predict_all,
            engine=self._engine, cache=self._config_cache,
            stats=self.stats, tracer=self.tracer)

    # -- topology changes -----------------------------------------------------

    def handle_node_failure(self, hostname: str) -> list[str]:
        """A machine left the meta-computer; displace everything on it.

        The paper's abstract: applications "can be made to adapt to
        changes in their execution environment due to ... the addition or
        deletion of nodes".  Every bundle whose chosen configuration
        touches the failed node is reconfigured immediately; bundles with
        no feasible remaining configuration are left explicitly
        unconfigured (``chosen is None``) and reported back.

        Returns the keys of applications that could not be replaced.
        """
        if self.journal is not None:
            # Journaled before the displacement: replay makes the same
            # displacement, then the subsequent ``apply`` records restore
            # the survivors exactly as the policy re-placed them.
            self.journal.record_node_failure(hostname)
        stranded: list[str] = []
        for instance, state, old in self.fail_node(hostname):
            try:
                self.policy.configure_new_bundle(
                    self, instance, state, reason=f"node failure: {hostname}")
            except AllocationError:
                stranded.append(instance.key)
                continue
            # Re-placed from unconfigured: the trace names what the
            # failure displaced.
            self.trace_log.amend_latest(old_configuration=old.describe())
        self.policy.reevaluate(self)
        self._checkpoint()
        return stranded

    def handle_node_restored(self, hostname: str) -> int:
        """A machine (re)joined; re-evaluate everyone to exploit it."""
        if self.journal is not None:
            self.journal.record_node_restored(hostname)
        self.restore_node(hostname)
        changes = self.policy.reevaluate(self)
        self.metrics.increment("controller.node_restorations", self.now)
        self._checkpoint()
        return changes

    def configure_stranded(self) -> int:
        """Retry applications left unconfigured by a failure; returns the
        number successfully (re)configured."""
        recovered = 0
        for instance in self.registry.instances():
            for state in instance.bundles.values():
                if state.chosen is not None:
                    continue
                try:
                    self.policy.configure_new_bundle(self, instance, state)
                    recovered += 1
                except AllocationError:
                    continue
        return recovered

    def note_term(self, term: int) -> None:
        """Adopt a fencing term and mirror it into the metric surface.

        ``controller.term`` is exported as a gauge so operators (and the
        failover chaos suite) can watch elections happen; the journal
        entry itself is written by the caller
        (:meth:`~repro.persistence.journal.DurabilityJournal.record_term`)
        because terms must be durable before they are served.
        """
        self.term = int(term)
        self.metrics.report("controller.term", self.now, float(term))

    # -- external (measured) load -------------------------------------------

    def update_external_load(self) -> None:
        """Fold measured environment load into the system view.

        Section 4.3: the periodic re-evaluation exists "to adapt the system
        due to changes out of Harmony's control (such as network traffic
        due to other applications)".  The controller only sees such load
        through the metric interface (a
        :class:`~repro.metrics.ClusterCollector` must be feeding
        ``node.<host>.cpu_load`` / ``link.<a>--<b>.active_transfers``).

        Measured load includes the work of Harmony's own applications, so
        the expected contribution of placed configurations is subtracted;
        only the surplus counts as external.
        """
        from repro.metrics.collectors import link_metric_name, node_metric_name

        for hostname in self.cluster.hostnames():
            measured = self.metrics.windowed_mean(
                node_metric_name(hostname, "cpu_load"),
                now=self.now, window_seconds=EXTERNAL_LOAD_WINDOW_SECONDS)
            if measured is None:
                continue
            own = self.view.cpu_consumers(hostname)
            external = max(0.0, measured - own)
            # Unchanged measurements are dropped before they reach the
            # view: a no-op set would still recompute its readers'
            # predictions and stamp the host every steady-state sweep.
            if external == self.view.external_cpu_load(hostname):
                continue
            self.set_external_cpu_load(hostname, external)
        for link in self.cluster.links():
            measured = self.metrics.windowed_mean(
                link_metric_name(link.host_a, link.host_b,
                                 "active_transfers"),
                now=self.now, window_seconds=EXTERNAL_LOAD_WINDOW_SECONDS)
            if measured is None:
                continue
            own = self.view.flows_between(link.host_a, link.host_b)
            external = max(0.0, measured - own)
            if external == self.view.external_link_load(link.host_a,
                                                        link.host_b):
                continue
            self.set_external_link_load(link.host_a, link.host_b, external)

    def set_external_cpu_load(self, hostname: str, consumers: float) -> None:
        """Set a node's external CPU load: the predictions that read it
        are recomputed and the host is stamped."""
        self.view.set_external_cpu_load(hostname, consumers)
        self._engine.commit([], load=PlacementFootprint(cpu={hostname: ()}))

    def set_external_link_load(self, host_a: str, host_b: str,
                               flows: float) -> None:
        """Set a link's external flow count: the predictions that read it
        are recomputed and the link is stamped."""
        self.view.set_external_link_load(host_a, host_b, flows)
        key = frozenset((host_a, host_b))
        self._engine.commit([], load=PlacementFootprint(
            flows={key: ()}, read_links=frozenset((key,))))

    # -- periodic re-evaluation ------------------------------------------------

    def reevaluate(self) -> int:
        """One re-evaluation sweep; returns the number of changes.

        Reports the sweep's wall-clock cost as
        ``controller.reevaluation_seconds`` (timestamped on the simulation
        clock) and refreshes the cumulative work counters.
        """
        start = _time.perf_counter()
        with self.tracer.span("controller.reevaluate") as span:
            self.update_external_load()
            changes = self.policy.reevaluate(self)
            span.set("changes", changes)
        self.metrics.report("controller.reevaluation_seconds", self.now,
                            _time.perf_counter() - start)
        self.report_work_counters()
        self._checkpoint()
        return changes

    def report_work_counters(self) -> None:
        """Publish cumulative optimizer/prediction/cache work counters.

        Counter semantics: each sample carries the running total (see
        :meth:`MetricInterface.increment`), so exporters read the latest
        sample and rates fall out of windowed differences.
        """
        now = self.now
        self.metrics.report("optimizer.candidates_evaluated", now,
                            float(self.stats.candidates_evaluated))
        self.metrics.report("optimizer.match_calls", now,
                            float(self.stats.match_calls))
        self.metrics.report("prediction.model_calls", now,
                            float(self.stats.predictions_recomputed))
        self.metrics.report("prediction.full_view_recomputes", now,
                            float(self.stats.full_view_recomputes))
        for key, value in self._config_cache.snapshot().items():
            self.metrics.report(f"optimizer.cache.{key}", now, float(value))
        self.metrics.report("optimizer.pruned_candidates", now,
                            float(self.stats.pruned_candidates))
        self.metrics.report("optimizer.partition.sweeps", now,
                            float(self.stats.partition_sweeps))
        self.metrics.report("optimizer.partition.pruned_bundles", now,
                            float(self.stats.pruned_bundles))
        self.metrics.report("optimizer.partition.pruned_pairs", now,
                            float(self.stats.pruned_pairs))

    def start_periodic_reevaluation(self) -> Process:
        """Spawn the Section 4.3 periodic adaptation process."""
        if self._reevaluation_process is not None \
                and self._reevaluation_process.is_alive:
            raise ControllerError("periodic re-evaluation already running")
        self._reevaluation_process = self.cluster.kernel.spawn(
            self._reevaluation_loop(), name="controller-reevaluation")
        return self._reevaluation_process

    def stop_periodic_reevaluation(self) -> None:
        if self._reevaluation_process is not None \
                and self._reevaluation_process.is_alive:
            self._reevaluation_process.interrupt("stop")
        self._reevaluation_process = None

    def _reevaluation_loop(self) -> Iterator:
        kernel = self.cluster.kernel
        try:
            while True:
                yield kernel.timeout(self.reevaluation_period_seconds)
                changes = self.reevaluate()
                self.metrics.report("controller.reevaluation_changes",
                                    self.now, float(changes))
        except Interrupted:
            return

    # -- introspection ------------------------------------------------------------

    def describe_system(self) -> list[str]:
        """One line per application: key, bundle, chosen configuration."""
        lines = []
        for instance in self.registry.instances():
            for bundle_name, state in instance.bundles.items():
                chosen = state.chosen.describe() if state.chosen else "-"
                lines.append(f"{instance.key} {bundle_name} -> {chosen}")
        return lines

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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.allocation.allocation import allocate
from repro.allocation.matcher import Matcher, MatchStrategy
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
from repro.obs.flightrec import EVENT_EVICTION, FlightRecorder
from repro.obs.instrument import Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    REJECT_WORSE_OBJECTIVE,
    CandidateTrace,
    DecisionTrace,
    DecisionTraceLog,
)
from repro.prediction.contention import PlacedConfiguration, SystemView
from repro.prediction.models import (
    DefaultModel,
    ExplicitSpecModel,
    ExpressionSpecModel,
    PerformanceModel,
)
from repro.rsl import Bundle, build_bundle

__all__ = ["AdaptationController", "DecisionRecord", "ReconfigurationEvent",
           "SessionLifecycleEvent", "ModelDrivenPolicy", "DecisionPolicy",
           "candidate_traces"]


@dataclass(frozen=True)
class DecisionRecord:
    """One controller decision, for logs, tests and the Figure 4 bench."""

    time: float
    app_key: str
    bundle_name: str
    old_configuration: str | None
    new_configuration: str
    reason: str
    objective_before: float
    objective_after: float


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


@dataclass(frozen=True)
class SessionLifecycleEvent:
    """One structured session-lifecycle transition in the controller.

    ``kind`` is one of ``registered``, ``rejoined``, ``ended``, or
    ``evicted``; ``detail`` carries the human-readable reason (for an
    eviction, why the session was removed).  The controller appends these
    to :attr:`AdaptationController.lifecycle_log` so operators can
    reconstruct exactly when each application joined, crashed, was
    cleaned up, or came back.
    """

    time: float
    app_key: str
    kind: str
    detail: str = ""


class DecisionPolicy:
    """Strategy interface for choosing configurations."""

    def configure_new_bundle(self, controller: "AdaptationController",
                             instance: AppInstance,
                             state: BundleState) -> None:
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
    applications to be reconfigured".  ``max_pairwise_bundles`` caps the
    quadratic pass.
    """

    def __init__(self, optimizer: GreedyOptimizer | None = None,
                 pairwise_exchange: bool = True,
                 max_pairwise_bundles: int = 12):
        self.optimizer = optimizer or GreedyOptimizer()
        self.pairwise_exchange = pairwise_exchange
        self.max_pairwise_bundles = max_pairwise_bundles

    def configure_new_bundle(self, controller: "AdaptationController",
                             instance: AppInstance,
                             state: BundleState) -> None:
        result = self.optimizer.optimize_bundle(
            instance, state, controller.optimization_context())
        if result.best is None:
            raise AllocationError(
                f"{instance.key}: no feasible configuration for bundle "
                f"{state.bundle.bundle_name!r}")
        controller.apply_candidate(
            instance, state, result.best,
            reason="initial",
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
            # the pairs the partition epochs prove cannot gain at all.
            changes += self._pairwise_pass(controller)
        return changes

    def _sweep_partitioned(self, controller: "AdaptationController") -> int:
        """Registry-order sweep with per-bundle clean-skip.

        "we simply iterate through the list of active applications and
        within each application through the list of options" — partitions
        only decide *skips*, never ordering, so the decision log is
        byte-identical to the same loop with pruning off (the serial
        oracle) even when registrations interleave partitions.  A bundle
        is skipped when its partition's epoch watermark proves its last
        no-op evaluation still holds (see
        :class:`~repro.controller.partition.PartitionIndex`).
        """
        index = controller.partition_index
        index.refresh()
        stats = controller.stats
        stats.partition_sweeps += 1
        prune = index.prunable(controller.objective)
        changes = 0
        #: pid -> [elapsed, evaluated, changed, skipped]
        activity: dict[int, list] = {}
        for instance in controller.registry.instances():
            for state in instance.bundles.values():
                key = bundle_key(instance, state)
                part = index.partition_of(key)
                pid = part.pid if part is not None else 0
                cell = activity.setdefault(pid, [0.0, 0, 0, 0])
                if prune and index.is_clean(key):
                    stats.pruned_bundles += 1
                    stats.pruned_candidates += index.candidate_count(state)
                    cell[3] += 1
                    continue
                start = _time.perf_counter()
                changed, stable = self._reevaluate_bundle_outcome(
                    controller, instance, state)
                cell[0] += _time.perf_counter() - start
                cell[1] += 1
                if changed:
                    changes += 1
                    cell[2] += 1
                elif stable and prune:
                    index.mark_clean(key)
        tracer = controller.tracer
        if tracer.enabled:
            end = tracer.elapsed()
            for pid, (elapsed, evaluated, changed, skipped) in \
                    sorted(activity.items()):
                part = index._parts.get(pid)
                tracer.record_span(
                    "optimizer.partition_sweep",
                    max(0.0, end - elapsed), elapsed,
                    partition=pid,
                    size=len(part.members) if part is not None else 0,
                    evaluated=evaluated, changes=changed, pruned=skipped)
        controller.metrics.report("optimizer.partitions", controller.now,
                                  float(index.partition_count))
        return changes

    def _pairwise_pass(self, controller: "AdaptationController") -> int:
        """One joint-improvement sweep over the bundle pairs.

        Pairs are visited in registry order.  Where pruning is sound
        (:meth:`PartitionIndex.prunable`) a pair that provably cannot
        gain is not searched; with pruning off the pass searches them all,
        the oracle the skips are tested against:

        * Two bundles of different partitions share nothing, so their
          joint score separates: when each one's own best gains nothing
          (:func:`_at_optimum`), no joint move gains, and the friction
          gate rejects a gain <= 0 on its sign alone.  The sweep's clean
          watermark records exactly that; a stale one is re-derived with
          one ``optimize_bundle`` (nothing applied), once per epoch.
        * A partition whose every internal pair ended a pass in such a
          sign-only no-op stays settled until its epoch moves.
        """
        entries: list[tuple] = []
        for instance in controller.registry.instances():
            for state in instance.bundles.values():
                if state.chosen is not None:
                    entries.append((instance, state))
        if len(entries) < 2 or len(entries) > self.max_pairwise_bundles:
            return 0
        stats = controller.stats
        index = controller.partition_index
        scoped = index.prunable(controller.objective)
        keys = [bundle_key(*entry) for entry in entries] if scoped else []
        parts = [index.partition_of(key) for key in keys]
        #: pid -> epoch at the start of the pass, for the partitions none
        #: of whose pairs has yet ended in anything but a sign-only no-op.
        settling = {part.pid: part.epoch for part in parts}
        #: (entry, epoch) -> at optimum: this pass's re-derivations.
        derived: dict[tuple[int, int], bool] = {}

        def at_optimum(which: int) -> bool:
            if index.is_clean(keys[which]):
                return True
            stamp = (which, parts[which].epoch)
            if stamp not in derived:
                instance, state = entries[which]
                derived[stamp] = _at_optimum(
                    state, self.optimizer.optimize_bundle(
                        instance, state, controller.optimization_context()))
            return derived[stamp]

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
                        settling.pop(shared.pid, None)
                    continue
                if shared is not None:
                    skip = shared.settled_epoch == shared.epoch
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
                        settling.pop(shared.pid, None)
                    continue
                if not _same_configuration(first[1], cand_a):
                    controller.apply_candidate(
                        first[0], first[1], cand_a,
                        reason="pairwise exchange",
                        objective_before=current)
                    changes += 1
                if not _same_configuration(second[1], cand_b):
                    controller.apply_candidate(
                        second[0], second[1], cand_b,
                        reason="pairwise exchange",
                        objective_before=current)
                    changes += 1
        for part in parts:
            if settling.get(part.pid) == part.epoch:
                part.settled_epoch = part.epoch
        return changes

    def _reevaluate_bundle_outcome(
            self, controller: "AdaptationController",
            instance: AppInstance, state: BundleState,
            ) -> tuple[bool, bool]:
        """Evaluate one bundle; returns ``(changed, stable)``.

        ``stable`` asserts the no-change outcome would recur if nothing
        in this bundle's partition changes — whatever happens in *other*
        partitions — so a clean watermark may be recorded (for a
        decomposable objective).  Only outcomes decided by a sign are:
        no feasible candidate, best equals current (candidate ranking is
        invariant under equal shifts), and rejection with gain <= 0.
        Every other rejection weighs the *size* of the gain, and under a
        mean that is a sum divided by the number of applications
        anywhere: an arrival or departure in another partition rescales
        it past a hysteresis threshold (whose denominator is the global
        objective besides) or a friction amortisation alike.
        Granularity-blocked outcomes depend on the clock.
        """
        now = controller.now
        if state.chosen is None:
            return False, True
        if not state.granularity_allows_switch(now):
            return False, False
        context = controller.optimization_context()
        result = self.optimizer.optimize_bundle(instance, state, context)
        best = result.best
        if best is None or _same_configuration(state, best):
            return False, True
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
            return False, decision.objective_gain <= 0
        controller.apply_candidate(
            instance, state, best,
            reason=f"reevaluation (gain {decision.objective_gain:.3g}s, "
                   f"friction {friction_cost:.3g}s)",
            objective_before=result.current_objective,
            trace_candidates=candidate_traces(
                controller, state, result.evaluated, best,
                result.current_objective))
        return True, False


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
        chosen = candidate is best
        if chosen:
            reason, detail = None, ""
        else:
            reason = REJECT_WORSE_OBJECTIVE
            detail = (f"objective {candidate.objective_value:.6g}s vs "
                      f"winner {best.objective_value:.6g}s")
        records.append(CandidateTrace(
            option_name=candidate.option_name,
            variable_assignment=dict(candidate.variable_assignment),
            placements=dict(candidate.assignment.placements),
            predicted_seconds=candidate.predicted_seconds,
            objective_value=candidate.objective_value,
            objective_delta=candidate.objective_value - objective_before,
            friction_cost_seconds=controller.friction_cost(
                state, candidate.option_name),
            chosen=chosen,
            rejection_reason=reason,
            detail=detail))
    return records


def _at_optimum(state: BundleState, result: OptimizationResult) -> bool:
    """Whether no configuration of this bundle alone gains anything: the
    outcomes ``_reevaluate_bundle_outcome`` calls stable."""
    best = result.best
    return (best is None or _same_configuration(state, best)
            or result.current_objective - best.objective_value <= 0)


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
                 namespace: Namespace | None = None,
                 objective: Objective | None = None,
                 policy: DecisionPolicy | None = None,
                 friction_policy: FrictionPolicy | None = None,
                 default_model: PerformanceModel | None = None,
                 match_strategy: MatchStrategy = MatchStrategy.FIRST_FIT,
                 reevaluation_period_seconds: float = 30.0,
                 tracer=None,
                 trace_log: DecisionTraceLog | None = None,
                 flight_recorder: FlightRecorder | None = None):
        self.cluster = cluster
        self.metrics = metrics or MetricInterface()
        #: Span recorder (pass a Tracer to profile; the no-op default
        #: keeps instrumented call sites zero-cost).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Always-on bounded log of per-reconfiguration decision traces.
        self.trace_log = trace_log if trace_log is not None \
            else DecisionTraceLog()
        #: Always-on bounded ring of recent runtime events (RPCs,
        #: faults, evictions, batches, WAL appends); dumped to JSONL on
        #: demand, on unhandled server errors, and from failing chaos
        #: suites.  The capacity bound keeps it safe to leave on.
        self.flight_recorder = flight_recorder if flight_recorder \
            is not None else FlightRecorder()
        #: Counter/gauge/timer verbs timestamped on the simulation clock.
        self.telemetry = Telemetry(self.metrics, lambda: self.now)
        self.namespace = namespace or Namespace()
        self.objective = objective or MeanResponseTime()
        self.policy = policy or ModelDrivenPolicy()
        self.friction_policy = friction_policy or FrictionPolicy()
        self.default_model = default_model or DefaultModel()
        self.matcher = Matcher(cluster, strategy=match_strategy)
        self.registry = ApplicationRegistry(namespace=self.namespace)
        self.view = SystemView(cluster)
        self.reevaluation_period_seconds = reevaluation_period_seconds
        self.decision_log: list[DecisionRecord] = []
        #: Structured register/rejoin/end/evict history (fault tolerance).
        self.lifecycle_log: list[SessionLifecycleEvent] = []
        #: Work counters for the benchmarks (see OptimizerStats).
        self.stats = OptimizerStats()
        self._engine = TrialEngine(self)
        self._config_cache = ConfigurationCache()
        #: Lets sweeps skip provably-unaffected bundles.
        self.partition_index = PartitionIndex(self)
        self._model_cache: dict[tuple[str, str, str], PerformanceModel] = {}
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

    def adopt_app(self, app_name: str, instance_id: int) -> AppInstance:
        """Re-admit an instance under its *original* key (federation).

        The cross-shard handoff path: the origin shard evicted the
        instance and shipped a descriptor; this controller re-creates it
        with the same ``app_name.instance_id`` key so the client's
        ``resume_key`` rejoin matches, then lets the client's session
        replay re-export its bundles (re-optimized against *this*
        shard's resources).  Journaled as a dedicated ``adopt`` record —
        replaying it as a plain ``register`` would mint a fresh id and
        diverge from the log.
        """
        with self.tracer.span("controller.adopt", app=app_name,
                              instance_id=instance_id) as span:
            instance = AppInstance(app_name=app_name,
                                   instance_id=instance_id,
                                   registered_at=self.now)
            self.registry.adopt(instance)
            span.set("key", instance.key)
            self._record_lifecycle("adopted", instance.key,
                                   detail="cross-shard handoff")
            self.metrics.report("controller.registered_apps", self.now,
                                float(len(self.registry)))
            if self.journal is not None:
                self.journal.record_adopt(instance)
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
            state = self.registry.add_bundle(instance, bundle)
            # Indexed before configuration so the initial apply and the
            # follow-up sweep see the (possibly merged) component.
            self.partition_index.add_bundle(instance, state)
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
        subtree is deleted, survivors are re-evaluated, and a structured
        ``evicted`` lifecycle event plus a ``controller.evictions`` metric
        record the degradation.
        """
        with self.tracer.span("controller.evict", app=instance.key,
                              reason=reason):
            self._release_app(instance, kind="evicted", detail=reason)
        self.metrics.report("controller.evictions", self.now, 1.0)
        self.flight_recorder.record(EVENT_EVICTION, client=instance.key,
                                    reason=reason)

    def _release_app(self, instance: AppInstance, kind: str,
                     detail: str) -> None:
        """Shared clean/forced removal path."""
        if self.journal is not None:
            # Journaled before the survivors re-optimize, so the release
            # precedes any reconfiguration records that reuse its space.
            self.journal.record_release(instance.key, kind, detail)
        token = self.view.remove(instance.key)
        if token.removed is not None:
            # Advance the prediction cache by the departure's dirty set
            # (an unplaced app bumped no version and left it valid).
            self._engine.commit([token])
        self.registry.remove(instance)
        # Instance keys are never reused, so its cached models and its
        # metric series are dead; so is everything cached under its
        # bundles' object ids.
        self.metrics.forget(f"controller.{instance.key}")
        for bundle_name, state in instance.bundles.items():
            self._config_cache.forget(state.bundle)
            for option_name in state.bundle.option_names():
                self._model_cache.pop(
                    (instance.key, bundle_name, option_name), None)
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
        self.lifecycle_log.append(SessionLifecycleEvent(
            time=self.now, app_key=app_key, kind=kind, detail=detail))

    def register_model(self, instance: AppInstance, bundle_name: str,
                       model: PerformanceModel,
                       option_name: str | None = None,
                       model_name: str | None = None) -> None:
        """Attach an explicit prediction model (the TCL-script analogue).

        Models are opaque callables the durability layer cannot
        serialize, so a journaled controller requires ``model_name`` — a
        key into the journal's ``model_registry`` under which the *same*
        model object is supplied again at restore time.
        """
        key = bundle_name if option_name is None \
            else f"{bundle_name}.{option_name}"
        if self.journal is not None:
            if model_name is None:
                raise ControllerError(
                    f"{instance.key}: a journaled controller registers "
                    f"models by name — pass model_name= (and list it in "
                    f"the journal's model_registry)")
            self.journal.record_model(instance.key, key, model_name)
        instance.models[key] = model
        # Custom models can read anything: drop cached predictions and the
        # instance's cached spec-resolved models.
        self._engine.invalidate()
        self.partition_index.note_models_changed()
        self._checkpoint()

    # -- reconfiguration plumbing -------------------------------------------

    def add_listener(self, listener: Callable[[ReconfigurationEvent], None],
                     ) -> Callable[[], None]:
        """Subscribe to configuration changes (used by the client library)."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def apply_candidate(self, instance: AppInstance, state: BundleState,
                        candidate: Candidate, reason: str,
                        objective_before: float = math.inf,
                        trace_candidates: Sequence[CandidateTrace] | None
                        = None) -> None:
        """Make ``candidate`` the live configuration of this bundle.

        ``trace_candidates`` carries the full evaluated-alternatives
        record for the decision trace; when omitted, the trace lists the
        chosen candidate alone.
        """
        old = state.chosen
        old_description = old.describe() if old else None
        option_changed = old is None or \
            old.option_name != candidate.option_name or \
            old.variable_assignment != candidate.variable_assignment

        if old is not None:
            old.allocation.release()
        try:
            allocation = allocate(
                self.cluster, candidate.demands, candidate.assignment,
                memory_grants=candidate.memory_grants,
                predicted_duration_seconds=None,
                holder=f"{instance.key}:{state.bundle.bundle_name}")
        except AllocationError:
            if old is not None:
                # The old allocation is gone and the new one failed: the
                # bundle is explicitly unconfigured — and must disappear
                # from the system view so predictions stop counting it.
                state.chosen = None
                self.view.remove(instance.key)
                self.partition_index.note_apply(
                    instance.key, state.bundle.bundle_name)
                if self.journal is not None:
                    self.journal.record_unconfigured(
                        instance.key, state.bundle.bundle_name)
                raise ControllerError(
                    f"{instance.key}: lost resources while reconfiguring "
                    f"{state.bundle.bundle_name!r}") from None
            raise

        state.chosen = ChosenConfiguration(
            option_name=candidate.option_name,
            variable_assignment=dict(candidate.variable_assignment),
            demands=candidate.demands,
            assignment=candidate.assignment,
            allocation=allocation,
            predicted_seconds=candidate.predicted_seconds,
            chosen_at=self.now)
        if option_changed:
            state.last_switch_time = self.now
            state.switch_count += 1
        token = self.view.place(instance.key, candidate.demands,
                                candidate.assignment)
        self.registry.publish_choice(instance, state.bundle.bundle_name,
                                     memory_grants=candidate.memory_grants)

        # Advance the prediction cache by this placement's delta instead of
        # recomputing the whole system.
        self._engine.commit([token])
        objective_after = self.objective.evaluate(
            self._engine.live_predictions())
        self.decision_log.append(DecisionRecord(
            time=self.now, app_key=instance.key,
            bundle_name=state.bundle.bundle_name,
            old_configuration=old_description,
            new_configuration=state.chosen.describe(),
            reason=reason,
            objective_before=objective_before,
            objective_after=objective_after))
        if trace_candidates is None:
            trace_candidates = [CandidateTrace(
                option_name=candidate.option_name,
                variable_assignment=dict(candidate.variable_assignment),
                placements=dict(candidate.assignment.placements),
                predicted_seconds=candidate.predicted_seconds,
                objective_value=candidate.objective_value,
                objective_delta=candidate.objective_value
                - objective_before,
                friction_cost_seconds=self.friction_cost(
                    state, candidate.option_name),
                chosen=True,
                rejection_reason=None)]
        self.trace_log.record(DecisionTrace(
            time=self.now, app_key=instance.key,
            bundle_name=state.bundle.bundle_name,
            trigger=reason,
            objective_before=objective_before,
            objective_after=objective_after,
            chosen_option=candidate.option_name,
            chosen_placements=dict(candidate.assignment.placements),
            candidates=tuple(trace_candidates)))
        option_index = state.bundle.option_names().index(
            candidate.option_name)
        self.metrics.report(
            f"controller.{instance.key}.{state.bundle.bundle_name}.option",
            self.now, float(option_index))
        self.metrics.report("controller.objective", self.now,
                            objective_after)
        if self.journal is not None:
            # The append is this decision's commit point: replay re-applies
            # the recorded result and verifies it reproduces
            # ``objective_after`` exactly.
            self.journal.record_apply(instance, state, candidate, reason,
                                      objective_before, objective_after)

        # Dirties the bundle's component (every member re-evaluates against
        # the new placement) and refreshes opacity tracking.
        self.partition_index.note_apply(instance.key,
                                        state.bundle.bundle_name)

        if option_changed:
            event = ReconfigurationEvent(
                time=self.now, app_key=instance.key,
                bundle_name=state.bundle.bundle_name,
                option_name=candidate.option_name,
                variable_assignment=dict(candidate.variable_assignment),
                placements=dict(candidate.assignment.placements),
                memory_grants=allocation.memory_grants())
            for listener in list(self._listeners):
                listener(event)

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
        try:
            instance = self.registry.instance(placed.app_key)
        except ControllerError:
            return None
        model = self._model_for(instance, placed.demands.option_name)
        self.stats.predictions_recomputed += 1
        return model.predict(placed.demands, placed.assignment, view,
                             app_key=placed.app_key)

    def _model_for(self, instance: AppInstance,
                   option_name: str) -> PerformanceModel:
        """Resolve an option's model, caching spec-derived resolutions.

        Resolving through the RSL spec constructs a fresh model object per
        call; those are stateless, so one per (instance, bundle, option)
        suffices.  Instances with explicitly registered models bypass the
        cache — their ``models`` dict is the live source of truth.
        """
        bundle_name = instance.bundle_of_option(option_name)
        if instance.models:
            return instance.model_for(bundle_name, option_name,
                                      default=self.default_model)
        key = (instance.key, bundle_name, option_name)
        model = self._model_cache.get(key)
        if model is None:
            model = instance.model_for(bundle_name, option_name,
                                       default=self.default_model)
            self._model_cache[key] = model
        return model

    def model_is_footprint_safe(self,
                                placed: PlacedConfiguration) -> bool:
        """Whether delta prediction may cache this application's value.

        True only for the built-in models whose reads are covered by the
        placement footprint (own nodes' CPU contention, own traffic's link
        contention).  Custom callables, critical-path models, and any
        subclass are opaque: they are recomputed on every trial.
        """
        try:
            instance = self.registry.instance(placed.app_key)
        except ControllerError:
            return True  # never predicted, so never cached
        model = self._model_for(instance, placed.demands.option_name)
        return type(model) in (DefaultModel, ExplicitSpecModel,
                               ExpressionSpecModel)

    def current_objective(self) -> float:
        """The objective over the live view, from the prediction cache."""
        return self.objective.evaluate(self._engine.live_predictions())

    def optimization_context(self) -> OptimizationContext:
        return OptimizationContext(
            view=self.view, matcher=self.matcher,
            objective=self.objective, predict_all=self.predict_all,
            now=self.now, engine=self._engine, cache=self._config_cache,
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
            # Journaled before the displacement: replay fails the node and
            # strips its placements, then the subsequent ``apply`` records
            # restore the survivors exactly as the policy re-placed them.
            self.journal.record_node_failure(hostname)
        node = self.cluster.node(hostname)
        node.fail()
        # Availability changed without a topology-version bump: the host's
        # component must re-evaluate (also covers the freed-resources case
        # when displaced bundles strand).
        self.partition_index.touch_host(hostname)
        stranded: list[str] = []
        for instance in self.registry.instances():
            for state in instance.bundles.values():
                chosen = state.chosen
                if chosen is None or \
                        hostname not in chosen.assignment.hostnames():
                    continue
                chosen.allocation.release()
                state.chosen = None
                self.view.remove(instance.key)
                try:
                    self.policy.configure_new_bundle(self, instance, state)
                    record = self.decision_log[-1]
                    self.decision_log[-1] = DecisionRecord(
                        time=record.time, app_key=record.app_key,
                        bundle_name=record.bundle_name,
                        old_configuration=chosen.describe(),
                        new_configuration=record.new_configuration,
                        reason=f"node failure: {hostname}",
                        objective_before=record.objective_before,
                        objective_after=record.objective_after)
                except AllocationError:
                    stranded.append(instance.key)
        self.policy.reevaluate(self)
        self.metrics.report("controller.node_failures", self.now, 1.0)
        self._checkpoint()
        return stranded

    def handle_node_restored(self, hostname: str) -> int:
        """A machine (re)joined; re-evaluate everyone to exploit it."""
        if self.journal is not None:
            self.journal.record_node_restored(hostname)
        self.cluster.node(hostname).restore()
        self.partition_index.touch_host(hostname)
        changes = self.policy.reevaluate(self)
        self.metrics.report("controller.node_restorations", self.now, 1.0)
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

    def update_external_load(self, window_seconds: float = 60.0) -> None:
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
                now=self.now, window_seconds=window_seconds)
            if measured is None:
                continue
            own = self.view.cpu_consumers(hostname)
            external = max(0.0, measured - own)
            # Unchanged measurements are dropped before they reach the
            # view: a no-op set would still bump the view version
            # (invalidating cached predictions) and spuriously dirty the
            # host's partition every steady-state sweep.
            if external == self.view.external_cpu_load(hostname):
                continue
            self.view.set_external_cpu_load(hostname, external)
            self.partition_index.touch_host(hostname)
        for link in self.cluster.links():
            measured = self.metrics.windowed_mean(
                link_metric_name(link.host_a, link.host_b,
                                 "active_transfers"),
                now=self.now, window_seconds=window_seconds)
            if measured is None:
                continue
            own = self.view.flows_between(link.host_a, link.host_b)
            external = max(0.0, measured - own)
            if external == self.view.external_link_load(link.host_a,
                                                        link.host_b):
                continue
            self.view.set_external_link_load(link.host_a, link.host_b,
                                             external)
            self.partition_index.touch_link(link.host_a, link.host_b)

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
        index = self.partition_index
        # Aggregates only — partition ids never become metric names, so
        # cardinality is fixed no matter how the system fragments.
        self.metrics.report("optimizer.partitions", now,
                            float(index.partition_count))
        self.metrics.report("optimizer.pruned_candidates", now,
                            float(self.stats.pruned_candidates))
        self.metrics.report("optimizer.partition.sweeps", now,
                            float(self.stats.partition_sweeps))
        self.metrics.report("optimizer.partition.pruned_bundles", now,
                            float(self.stats.pruned_bundles))
        self.metrics.report("optimizer.partition.pruned_pairs", now,
                            float(self.stats.pruned_pairs))
        self.metrics.report("optimizer.partition.merges", now,
                            float(index.merges))
        self.metrics.report("optimizer.partition.rebuilds", now,
                            float(index.rebuilds))
        self.metrics.report(
            "optimizer.partition.largest", now,
            float(max((len(p.members) for p in index.partitions()),
                      default=0)))

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

    def current_choice(self, instance: AppInstance,
                       bundle_name: str) -> ChosenConfiguration | None:
        return instance.bundle_state(bundle_name).chosen

    def describe_system(self) -> list[str]:
        """One line per application: key, bundle, chosen configuration."""
        lines = []
        for instance in self.registry.instances():
            for bundle_name, state in instance.bundles.items():
                chosen = state.chosen.describe() if state.chosen else "-"
                lines.append(f"{instance.key} {bundle_name} -> {chosen}")
        return lines

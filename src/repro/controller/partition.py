"""Partitioned optimization: connected components over resource reach.

The greedy sweep (paper Section 4.3) re-scores every bundle on every
trigger, which is O(apps**2) model work per admission burst — the
BENCH_scale numbers show the wall superlinear in system size.  But most
bundles cannot interact at all: a bundle constrained to the hosts of one
pod shares no node, no link, and no memory pool with a bundle constrained
to another pod, so neither's reconfiguration can change anything the
other's evaluation reads.  This module makes that independence explicit:

* :class:`PartitionIndex` — decomposes the system into connected
  components over each bundle's **reach**: every host its hostname
  patterns could ever match, plus every link on a path between reach
  hosts (when the bundle declares links or communication).  Reach is a
  *potential* footprint — it covers every candidate the matcher could
  produce, every memory reservation, every contention read the
  prediction model performs, and the load-ordering inputs, so two
  bundles in different components are provably independent.  Components
  are maintained incrementally as bundles register, reconfigure, and
  end; a new bundle whose reach spans two components merges them.

* **Records** — one rule decides every skip.  A bundle whose evaluation
  found nothing to change keeps one :class:`~repro.controller.trial.ReadSet`:
  what its scoring read, plus its reach.  The record is valid while no
  key it covers has been stamped after its clock
  (``TrialEngine._stamps``: every commit stamps what it wrote and the
  hosts its allocations hold memory on; a node failing or coming back
  and an external-load change stamp the host or link they change) and
  the engine epoch and the topology version are unchanged.  While it
  holds, the sweep neither matches nor scores the bundle
  (:meth:`PartitionIndex.holds`); when it does not, a match that finds
  the same candidates with the same reads unwritten still skips scoring
  (``GreedyOptimizer.optimize_bundle(since=...)``) and renews the record.
  Reach alone would not do: a co-runner placed across two pods makes a
  commit on the far pod change what this bundle's trials read.
  Records are only written and honoured when pruning is provably safe
  (:meth:`PartitionIndex.prunable`: an additively decomposable objective
  and no opaque models), and only for outcomes that stay no-ops whatever
  happens elsewhere (see ``ModelDrivenPolicy._reevaluate_bundle_outcome``).

* **Settled components** — the pairwise pass keeps one record per
  component whose every internal pair ended a pass in a sign-only no-op,
  keyed by its member set and covering the union of the members' reach
  and reads; later passes skip its pairs while the record holds (see
  ``ModelDrivenPolicy._pairwise_pass``).  Records are keyed by bundles
  and member sets, never by partition ids, so a rebuild keeps them all.

* **Rebuilds** — every :data:`REBUILD_AFTER_REMOVALS` removals the
  components are recomputed so over-broad ones split again.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.controller.optimizer import DEFAULT_MEMORY_PROBE_LIMIT
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController
    from repro.controller.registry import AppInstance, BundleState
    from repro.controller.trial import ReadSet

__all__ = ["PartitionIndex", "Partition", "bundle_key"]

#: How many bundle removals accumulate before the index rebuilds its
#: components from scratch.  Removal never *splits* a component lazily
#: (over-broad components are always safe, just prune less), so a rebuild
#: only recovers pruning opportunity — it is never needed for
#: correctness.
REBUILD_AFTER_REMOVALS = 16

BundleKey = tuple[str, str]  # (app_key, bundle_name)
#: A hostname, or a link's ``frozenset({host_a, host_b})``: the keys
#: ``TrialEngine`` stamps and reads.
ResourceKey = object


def bundle_key(instance: "AppInstance", state: "BundleState") -> BundleKey:
    return (instance.key, state.bundle.bundle_name)


class Partition:
    """One connected component of bundles sharing potential resources."""

    __slots__ = ("pid", "members", "resources")

    def __init__(self, pid: int):
        self.pid = pid
        self.members: set[BundleKey] = set()
        self.resources: set[ResourceKey] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Partition(pid={self.pid}, members={len(self.members)}, "
                f"resources={len(self.resources)})")


class PartitionIndex:
    """Connected components over bundle reach, and the records of what
    stays a no-op."""

    def __init__(self, controller: "AdaptationController"):
        self.controller = controller
        self._parts: dict[int, Partition] = {}
        self._owner: dict[ResourceKey, int] = {}
        self._member_pid: dict[BundleKey, int] = {}
        #: Bundle key -> its last stable no-op, and member set -> the
        #: pass that settled that component; both dropped with a member.
        self._no_ops: dict[BundleKey | frozenset, ReadSet] = {}
        #: Reach memo, dropped with the bundle:
        #: key -> (topology_version, reach).
        self._reach: dict[BundleKey, tuple[int, frozenset]] = {}
        #: frozenset(hosts) -> frozenset of link resource keys (memoized
        #: per topology version via _edges_version).
        self._edge_sets: dict[frozenset, frozenset] = {}
        self._edges_version = -1
        self._topology_version = getattr(controller.cluster,
                                         "topology_version", 0)
        self._next_pid = 1
        self._removals = 0
        self.merges = 0
        self.rebuilds = 0

    # -- queries -------------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return len(self._parts)

    def partitions(self) -> list[Partition]:
        return list(self._parts.values())

    def partition_of(self, key: BundleKey) -> Partition | None:
        pid = self._member_pid.get(key)
        return None if pid is None else self._parts[pid]

    def last_no_op(self, key: BundleKey) -> ReadSet | None:
        return self._no_ops.get(key)

    def holds(self, key: BundleKey, state: "BundleState") -> bool:
        """Whether re-evaluating this bundle is provably a no-op: its
        last stable no-op's record holds over its reach and reads."""
        record = self._no_ops.get(key)
        return record is not None and self.controller._engine.holds(
            record, state.chosen,
            self.controller.view.configuration_of(key[0]))

    def note_no_op(self, key: BundleKey, state: "BundleState",
                   reads: ReadSet | None = None) -> None:
        """Record a stable no-op of this bundle: what it read (``None``:
        nothing, an unconfigured bundle) and its reach."""
        if key not in self._member_pid:
            return
        if reads is None:
            reads = self.controller._engine.read_set(
                state.chosen, self.controller.view.configuration_of(key[0]))
        reads.covers = self._reach_of(key, state) | reads.keys
        self._no_ops[key] = reads

    def now(self) -> ReadSet:
        """An empty record taken now: the clock a component settled by
        the pass starting now is valid from."""
        return self.controller._engine.read_set(None, None)

    def settled(self, part: Partition) -> bool:
        """Whether a pass settled this component and its record holds."""
        record = self._no_ops.get(frozenset(part.members))
        return record is not None and \
            self.controller._engine.holds(record, None, None)

    def settle(self, part: Partition, since: ReadSet) -> None:
        """Every internal pair of this component ended the pass that
        started at ``since`` in a sign-only no-op: record it over the
        members' reach and reads, replacing its older member sets'."""
        members = frozenset(part.members)
        keys = set(part.resources)
        for key in members:
            record = self._no_ops.get(key)
            if record is not None:
                keys |= record.keys
        for stale in [k for k in self._no_ops
                      if isinstance(k, frozenset) and k & members]:
            del self._no_ops[stale]
        self._no_ops[members] = replace(since, covers=frozenset(keys))

    def prunable(self, objective: object) -> bool:
        """Whether skipping on records is provably serial-equivalent.

        Requires an additively decomposable objective (a stable no-op's
        candidate ranking and gain are then invariant under changes it
        did not read) and no opaque models (an opaque model may read any
        state, coupling everything) — the engine's own opacity set, read
        after it has caught up with the view.
        """
        engine = self.controller._engine
        engine.live_predictions()
        return not engine._opaque and \
            bool(getattr(objective, "decomposable", False))

    def candidate_count(self, state: "BundleState") -> int:
        """Cached configuration-space size, for pruned-candidate counts."""
        return self.controller._config_cache.peek_space_len(
            state.bundle, DEFAULT_MEMORY_PROBE_LIMIT)

    # -- membership maintenance ----------------------------------------------

    def add_bundle(self, instance: "AppInstance",
                   state: "BundleState") -> int:
        """Index a registered bundle; returns its partition id.

        Components whose resources the bundle's reach touches are merged
        (this is how two partitions merge mid-run when a new bundle
        spans both).
        """
        key = bundle_key(instance, state)
        existing = self._member_pid.get(key)
        if existing is not None:
            return existing
        reach = self._reach_of(key, state)
        pids = sorted({self._owner[r] for r in reach if r in self._owner})
        if not pids:
            part = Partition(self._next_pid)
            self._next_pid += 1
            self._parts[part.pid] = part
        else:
            part = self._parts[pids[0]]
            for other_pid in pids[1:]:
                self._absorb(part, self._parts[other_pid])
                self.merges += 1
        part.members.add(key)
        part.resources |= reach
        for resource in reach:
            self._owner[resource] = part.pid
        self._member_pid[key] = part.pid
        return part.pid

    def _absorb(self, part: Partition, other: Partition) -> None:
        for key in other.members:
            self._member_pid[key] = part.pid
        for resource in other.resources:
            self._owner[resource] = part.pid
        part.members |= other.members
        part.resources |= other.resources
        del self._parts[other.pid]

    def remove_app(self, app_key: str) -> None:
        """Drop every bundle of an ended/evicted application, with its
        records and every settled member set it belonged to.

        Components are not split eagerly — an over-broad component is
        always safe — but enough removals trigger a rebuild (see
        :meth:`refresh`).
        """
        for key in [k for k in self._member_pid if k[0] == app_key]:
            pid = self._member_pid.pop(key)
            self._reach.pop(key, None)
            self._no_ops = {k: record for k, record in self._no_ops.items()
                            if k != key and not (isinstance(k, frozenset)
                                                 and key in k)}
            part = self._parts[pid]
            part.members.discard(key)
            self._removals += 1
            if not part.members:
                for resource in part.resources:
                    if self._owner.get(resource) == pid:
                        del self._owner[resource]
                del self._parts[pid]

    # -- lifecycle -----------------------------------------------------------

    def refresh(self) -> None:
        """Sweep preamble: react to topology changes and deferred work."""
        current = getattr(self.controller.cluster, "topology_version", 0)
        registered = sum(len(instance.bundles) for instance
                         in self.controller.registry.instances())
        if current != self._topology_version or \
                self._removals >= REBUILD_AFTER_REMOVALS or \
                registered != len(self._member_pid):
            # A defence: every path that adds a bundle (live, replay,
            # snapshot load) indexes it, so membership only disagrees if
            # a future path forgets to.
            self.rebuild()

    def rebuild(self) -> None:
        """Recompute components from scratch.

        Used after topology changes (patterns may match new hosts,
        merging components) and after enough removals (components may
        split, restoring pruning opportunity).  Records name no
        component, so they need no carrying: a topology change outdates
        every one of them through its own topology version, and a split
        component's member set finds its settled record again.
        """
        self._parts.clear()
        self._owner.clear()
        self._member_pid = {}
        self._removals = 0
        self._topology_version = getattr(self.controller.cluster,
                                         "topology_version", 0)
        self.rebuilds += 1
        for instance in self.controller.registry.instances():
            for state in instance.bundles.values():
                self.add_bundle(instance, state)

    # -- reach computation -----------------------------------------------------

    def _reach_of(self, key: BundleKey,
                  state: "BundleState") -> frozenset:
        """Every resource key this bundle's evaluation could ever read.

        Hosts: the union of what its options' hostname patterns match
        (the matcher's memo; ``*`` is every host, no pattern none).
        Links: every link on a routing path between two reach hosts,
        when any option declares links or communication.  Current
        placements are included for safety, though matching guarantees
        they already lie inside the pattern union.
        """
        tv = self._topology_version
        hit = self._reach.get(key)
        if hit is not None and hit[0] == tv:
            return hit[1]
        cluster = self.controller.cluster
        matcher = self.controller.matcher
        all_hosts = cluster.hostnames()
        hosts: set[str] = set()
        needs_links = False
        for option in state.bundle.options:
            if option.links or option.communication is not None:
                needs_links = True
            patterns = frozenset(r.hostname for r in option.nodes)
            if "*" in patterns:
                hosts.update(all_hosts)
            elif patterns:
                hosts.update(node.hostname for node
                             in matcher.reachable_nodes(patterns))
        if state.chosen is not None:
            hosts |= state.chosen.assignment.hostnames()
        resources: set[ResourceKey] = set(hosts)
        if needs_links and len(hosts) < len(all_hosts):
            resources |= self._edges_among(frozenset(hosts))
        reach = frozenset(resources)
        self._reach[key] = (tv, reach)
        return reach

    def _edges_among(self, hosts: frozenset[str]) -> frozenset:
        """Link keys on any routing path between two reach hosts.

        Paths may transit hosts outside the reach (a shared hub), so the
        returned keys are what connect two components that only interact
        through link contention or bandwidth.  Skipped entirely when the
        reach already spans the whole cluster (the component then merges
        with everything through host keys alone).
        """
        if self._edges_version != self._topology_version:
            self._edge_sets.clear()
            self._edges_version = self._topology_version
        hit = self._edge_sets.get(hosts)
        if hit is not None:
            return hit
        cluster = self.controller.cluster
        edges: set[ResourceKey] = set()
        ordered = sorted(hosts)
        for i, host_a in enumerate(ordered):
            for host_b in ordered[i + 1:]:
                try:
                    links = cluster.path_links(host_a, host_b)
                except SimulationError:
                    continue
                for link in links:
                    edges.add(frozenset((link.host_a, link.host_b)))
        result = frozenset(edges)
        self._edge_sets[hosts] = result
        return result


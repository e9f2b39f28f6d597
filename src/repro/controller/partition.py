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

* **Partition epochs** — each component carries an epoch counter bumped
  by any event that can change a member's evaluation (membership
  change, applied reconfiguration, external-load change on a reach
  host/link, node failure or restoration).  A bundle whose last
  evaluation found nothing to change records a *watermark* (component,
  epoch); while the watermark holds, re-evaluating it is provably a
  no-op — the explicit no-improvement bound that lets sweeps skip it.
  Watermarks are only recorded for outcomes that stay no-ops whatever
  happens in other partitions — the bundle's best configuration is the
  one in place, or gains nothing (see
  ``ModelDrivenPolicy._reevaluate_bundle_outcome``) — and only honoured
  when pruning is provably safe (:meth:`PartitionIndex.prunable`:
  an additively decomposable objective and no opaque models).

* **Pair watermarks** — the pairwise pass reads the same epochs.  A
  clean bundle is at its own optimum, so a pair of clean bundles from
  two components cannot gain jointly and is not searched; a component
  whose every internal pair ended a pass in such a no-op records its
  epoch (:attr:`Partition.settled_epoch`) and later passes skip its
  pairs until the epoch moves (see ``ModelDrivenPolicy._pairwise_pass``).

* **Rebuilds** — every :data:`REBUILD_AFTER_REMOVALS` removals the
  components are recomputed so over-broad ones split again.  On an
  unchanged topology that only refines them, so the split components
  keep their members' watermarks and their settled pairs; a topology
  change drops them all (:meth:`PartitionIndex.rebuild`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.allocation.matcher import _hostname_matches
from repro.controller.optimizer import DEFAULT_MEMORY_PROBE_LIMIT
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController
    from repro.controller.registry import AppInstance, BundleState

__all__ = ["PartitionIndex", "Partition", "bundle_key"]

#: How many bundle removals accumulate before the index rebuilds its
#: components from scratch.  Removal never *splits* a component lazily
#: (over-broad components are always safe, just prune less), so a rebuild
#: only recovers pruning opportunity — it is never needed for
#: correctness.
REBUILD_AFTER_REMOVALS = 16

BundleKey = tuple[str, str]  # (app_key, bundle_name)
ResourceKey = tuple  # ("h", hostname) | ("l", frozenset({a, b}))


def bundle_key(instance: "AppInstance", state: "BundleState") -> BundleKey:
    return (instance.key, state.bundle.bundle_name)


class Partition:
    """One connected component of bundles sharing potential resources."""

    __slots__ = ("pid", "epoch", "settled_epoch", "members", "resources")

    def __init__(self, pid: int):
        self.pid = pid
        #: Bumped by every event that can change a member's evaluation.
        self.epoch = 0
        #: The epoch at which a pairwise pass last found nothing to
        #: exchange between any two members; valid while it equals
        #: ``epoch``.
        self.settled_epoch = -1
        self.members: set[BundleKey] = set()
        self.resources: set[ResourceKey] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Partition(pid={self.pid}, epoch={self.epoch}, "
                f"members={len(self.members)}, "
                f"resources={len(self.resources)})")


class PartitionIndex:
    """Connected components over bundle reach, with dirtiness epochs."""

    def __init__(self, controller: "AdaptationController"):
        self.controller = controller
        self._parts: dict[int, Partition] = {}
        self._owner: dict[ResourceKey, int] = {}
        self._member_pid: dict[BundleKey, int] = {}
        #: (pid, epoch) recorded when a bundle's evaluation was a proven
        #: no-op; valid while it still equals the live (pid, epoch).
        self._clean_at: dict[BundleKey, tuple[int, int]] = {}
        #: Reach memo, dropped with the bundle:
        #: key -> (topology_version, reach).
        self._reach: dict[BundleKey, tuple[int, frozenset]] = {}
        #: (pattern, topology_version) -> frozenset of matching hostnames.
        self._pattern_hosts: dict[tuple[str, int], frozenset[str]] = {}
        #: frozenset(hosts) -> frozenset of link resource keys (memoized
        #: per topology version via _edges_version).
        self._edge_sets: dict[frozenset, frozenset] = {}
        self._edges_version = -1
        #: Apps whose models may read state outside their reach: while
        #: any exists, every partition couples with every other and
        #: pruning is disabled.
        self._opaque: set[str] = set()
        self._models_rescan = False
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

    def is_clean(self, key: BundleKey) -> bool:
        """Whether re-evaluating this bundle is provably a no-op."""
        pid = self._member_pid.get(key)
        if pid is None:
            return False
        return self._clean_at.get(key) == (pid, self._parts[pid].epoch)

    def mark_clean(self, key: BundleKey) -> None:
        pid = self._member_pid.get(key)
        if pid is not None:
            self._clean_at[key] = (pid, self._parts[pid].epoch)

    def prunable(self, objective: object) -> bool:
        """Whether clean-skip pruning is provably serial-equivalent.

        Requires an additively decomposable objective (a clean bundle's
        candidate ranking and gain are then invariant under other
        partitions' changes) and no opaque models (an opaque model may
        read any partition's state, coupling everything).
        """
        return not self._opaque and \
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
        spans both); the touched component's epoch is bumped so every
        member is re-evaluated against the newcomer.
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
        part.epoch += 1
        return part.pid

    def _absorb(self, part: Partition, other: Partition) -> None:
        for key in other.members:
            self._member_pid[key] = part.pid
        for resource in other.resources:
            self._owner[resource] = part.pid
        part.members |= other.members
        part.resources |= other.resources
        # Merged members must all re-evaluate: their watermarks name the
        # dead component, so bumping the survivor's epoch suffices.
        part.epoch = max(part.epoch, other.epoch) + 1
        del self._parts[other.pid]

    def remove_app(self, app_key: str) -> None:
        """Drop every bundle of an ended/evicted application.

        The freed resources can improve surviving members' options, so
        the component's epoch is bumped.  Components are not split
        eagerly — an over-broad component is always safe — but enough
        removals trigger a rebuild (see :meth:`refresh`).
        """
        for key in [k for k in self._member_pid if k[0] == app_key]:
            pid = self._member_pid.pop(key)
            self._clean_at.pop(key, None)
            self._reach.pop(key, None)
            part = self._parts[pid]
            part.members.discard(key)
            part.epoch += 1
            self._removals += 1
            if not part.members:
                for resource in part.resources:
                    if self._owner.get(resource) == pid:
                        del self._owner[resource]
                del self._parts[pid]
        self._opaque.discard(app_key)

    def note_apply(self, app_key: str, bundle_name: str) -> None:
        """An applied reconfiguration dirties the bundle's component."""
        pid = self._member_pid.get((app_key, bundle_name))
        if pid is not None:
            self._parts[pid].epoch += 1
        placed = self.controller.view.configuration_of(app_key)
        if placed is not None:
            self._note_opacity(app_key, placed)

    def _note_opacity(self, app_key: str, placed) -> None:
        safe = self.controller.model_is_footprint_safe(placed)
        if safe and app_key in self._opaque:
            self._opaque.discard(app_key)
            self.touch_all()
        elif not safe and app_key not in self._opaque:
            self._opaque.add(app_key)
            self.touch_all()

    def note_models_changed(self) -> None:
        """An explicit model was registered: rescan opacity, dirty all."""
        self._models_rescan = True
        self.touch_all()

    # -- dirtiness -----------------------------------------------------------

    def touch_all(self) -> None:
        for part in self._parts.values():
            part.epoch += 1

    def touch_host(self, hostname: str) -> None:
        pid = self._owner.get(("h", hostname))
        if pid is not None:
            self._parts[pid].epoch += 1

    def touch_link(self, host_a: str, host_b: str) -> None:
        pid = self._owner.get(("l", frozenset((host_a, host_b))))
        if pid is not None:
            self._parts[pid].epoch += 1

    # -- lifecycle -----------------------------------------------------------

    def refresh(self) -> None:
        """Sweep preamble: react to topology changes and deferred work."""
        current = getattr(self.controller.cluster, "topology_version", 0)
        registered = sum(len(instance.bundles) for instance
                         in self.controller.registry.instances())
        if current != self._topology_version or \
                self._removals >= REBUILD_AFTER_REMOVALS or \
                registered != len(self._member_pid):
            # The membership check self-heals paths that rebuild
            # controller state without going through setup_bundle
            # (crash recovery reconstructs the registry via the codec).
            self.rebuild()
        if self._models_rescan:
            self._rescan_opacity()

    def _rescan_opacity(self) -> None:
        self._models_rescan = False
        self._opaque = {placed.app_key for placed
                        in self.controller.view.configurations()
                        if not self.controller.model_is_footprint_safe(placed)}

    def rebuild(self) -> None:
        """Recompute components from scratch, keeping what still holds.

        Used after topology changes (patterns may match new hosts,
        merging components) and after enough removals (components may
        split, restoring pruning opportunity).

        A topology change moves reach itself, so every watermark is
        dropped and the next sweep evaluates every bundle.  A rebuild on
        the same topology only *refines*: removal never splits a
        component lazily and reach is memoised per topology version, so
        each new component is a subset of one old component and nothing
        any evaluation reads has changed.  Such a component re-keys its
        members' still-valid clean watermarks to its own ``(pid, epoch)``
        and stays settled if its old component was.  The refinement is
        checked, not assumed: a component with members from two old
        components, or with a bundle that was not indexed (after a
        restore, every component), carries nothing.

        Opacity is re-derived from the view too: a restore rebuilds the
        registry and the placements without telling the index about the
        models it read back.
        """
        current = getattr(self.controller.cluster, "topology_version", 0)
        old_pid = self._member_pid if current == self._topology_version \
            else {}
        clean = {key for key in old_pid if self.is_clean(key)}
        settled = {pid for pid, part in self._parts.items()
                   if part.settled_epoch == part.epoch}
        self._parts.clear()
        self._owner.clear()
        self._member_pid = {}
        self._clean_at.clear()
        self._removals = 0
        self._topology_version = current
        self.rebuilds += 1
        for instance in self.controller.registry.instances():
            for state in instance.bundles.values():
                self.add_bundle(instance, state)
        self._rescan_opacity()
        for part in self._parts.values():
            sources = {old_pid.get(key) for key in part.members}
            if len(sources) != 1 or None in sources:
                continue
            for key in part.members & clean:
                self._clean_at[key] = (part.pid, part.epoch)
            if sources.pop() in settled:
                part.settled_epoch = part.epoch

    # -- reach computation -----------------------------------------------------

    def _reach_of(self, key: BundleKey,
                  state: "BundleState") -> frozenset:
        """Every resource key this bundle's evaluation could ever read.

        Hosts: the union of its configuration space's hostname patterns,
        matched against the cluster (memoized per pattern and topology
        version).  Links: every link on a routing path between two reach
        hosts, when any option declares links or communication.  Current
        placements are included for safety, though matching guarantees
        they already lie inside the pattern union.
        """
        bundle = state.bundle
        tv = self._topology_version
        hit = self._reach.get(key)
        if hit is not None and hit[0] == tv:
            return hit[1]
        patterns: set[str] = set()
        needs_links = False
        for option in bundle.options:
            if option.links or option.communication is not None:
                needs_links = True
            for requirement in option.nodes:
                patterns.add(requirement.hostname)
        all_hosts = self.controller.cluster.hostnames()
        if "*" in patterns:
            hosts = frozenset(all_hosts)
        else:
            hosts = frozenset().union(
                *(self._hosts_matching(p, all_hosts) for p in patterns)) \
                if patterns else frozenset()
        if state.chosen is not None:
            hosts |= frozenset(state.chosen.assignment.hostnames())
        resources: set[ResourceKey] = {("h", h) for h in hosts}
        if needs_links and len(hosts) < len(all_hosts):
            resources |= self._edges_among(frozenset(hosts))
        reach = frozenset(resources)
        self._reach[key] = (tv, reach)
        return reach

    def _hosts_matching(self, pattern: str,
                        all_hosts: Iterable[str]) -> frozenset[str]:
        key = (pattern, self._topology_version)
        hit = self._pattern_hosts.get(key)
        if hit is None:
            hit = frozenset(h for h in all_hosts
                            if _hostname_matches(pattern, h))
            self._pattern_hosts[key] = hit
        return hit

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
                    edges.add(("l", frozenset((link.host_a, link.host_b))))
        result = frozenset(edges)
        self._edge_sets[hosts] = result
        return result


"""Partitioned optimization: records of what stays a no-op, and the
components over resource reach that the pairwise pass separates.

The greedy sweep (paper Section 4.3) re-scores every bundle on every
trigger, which is O(apps**2) model work per admission burst — the
BENCH_scale numbers show the wall superlinear in system size.  But most
bundles cannot interact at all: a bundle constrained to the hosts of one
pod shares no node, no link, and no memory pool with a bundle constrained
to another pod, so neither's reconfiguration can change anything the
other's evaluation reads.  :class:`PartitionIndex` makes that
independence explicit:

* **Reach** — every host a bundle's hostname patterns could ever match,
  plus every link on a path between reach hosts (when the bundle
  declares links or communication).  Reach is a *potential* footprint —
  it covers every candidate the matcher could produce, every memory
  reservation, every contention read the prediction model performs, and
  the load-ordering inputs.  It is memoized per bundle and topology
  version.

* **Records** — one rule decides every skip.  A bundle whose evaluation
  found nothing to change keeps a :class:`~repro.controller.trial.ReadSet`:
  what its scoring read, plus what its match examined.  The record is
  valid while no key it covers has been stamped after its clock
  (``TrialEngine._stamps``: every commit stamps what it wrote and the
  hosts its allocations hold memory on; a node failing or coming back
  and an external-load change stamp the host or link they change) and
  the engine epoch and the topology version are unchanged.  While it
  holds, the sweep neither matches nor scores the bundle
  (:meth:`PartitionIndex.holds`); when it does not, the bundle is matched
  and scored, and a stable no-op writes its record again.
  The record that one replaces is kept as the bundle's one *displaced*
  record while it can still hold (:meth:`TrialEngine.alive`: all but
  the boundary clause), and :meth:`PartitionIndex.holds` falls back to
  it when the latest fails.  A departure that frees a host voids only
  the boundary clause of the records whose scans stopped after it; the
  arrival that fills the host again puts it back past their boundary,
  and they hold again: one rule, checked on either record.
  What the match examined is narrower than reach.  A first-fit match
  walks the bundle's load order (its own placement excluded) and stops
  at the first node that fits, so the record covers the *scanned
  prefix* — every host at or before the furthest position any of the
  bundle's matches reached — and keeps the *boundary*, the
  :meth:`~repro.prediction.contention.SystemView.order_key` of that
  furthest host.  A stamped host of the reach outside the prefix voids
  the record only when it now orders before the boundary.  This is
  exact: a host's key, availability and free memory change only with a
  stamp, so an unstamped prefix host looks the same to the next match,
  and a host that orders after the boundary is never examined; the
  match's link checks read only the topology, since the controller
  reserves no bandwidth.  An unconfigured bundle, which has no match,
  covers its reach.  Reach and scan alone would not do: a co-runner
  placed across two pods makes a commit on the far pod change what
  this bundle's trials read, which the scoring reads cover.
  Records are only written and honoured when pruning is provably safe
  (:meth:`PartitionIndex.prunable`: an additively decomposable objective
  and no opaque models), and only for outcomes that stay no-ops whatever
  happens elsewhere (see ``ModelDrivenPolicy._reevaluate_bundle_outcome``).

* **Components** — the pairwise pass computes, for the bundles it is
  about to pair, the connected components over shared reach
  (:meth:`PartitionIndex.components`): two bundles in different
  components are provably independent.  It keeps one record per
  component whose every internal pair ended a pass in a sign-only
  no-op, keyed by its member set and covering the members' reach and
  reads; later passes skip its pairs while the record holds (see
  ``ModelDrivenPolicy._pairwise_pass``).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController
    from repro.controller.registry import AppInstance, BundleState
    from repro.controller.trial import ReadSet

__all__ = ["PartitionIndex", "bundle_key"]

BundleKey = tuple[str, str]  # (app_key, bundle_name)
#: A hostname, or a link's ``frozenset({host_a, host_b})``: the keys
#: ``TrialEngine`` stamps and reads.
ResourceKey = object
#: One connected component: its member keys and the union of their reach.
Component = tuple[frozenset, frozenset]


def bundle_key(instance: "AppInstance", state: "BundleState") -> BundleKey:
    return (instance.key, state.bundle.bundle_name)


class PartitionIndex:
    """The records of what stays a no-op — each bundle's latest, and the
    one that record displaced while it can still hold — and bundle
    reach."""

    def __init__(self, controller: "AdaptationController"):
        self.controller = controller
        #: Bundle key -> its latest stable no-op, and member set -> the
        #: pass that settled that component; both dropped with a member.
        self._no_ops: dict[BundleKey | frozenset, ReadSet] = {}
        #: Bundle key -> the record its latest stable no-op replaced,
        #: kept while it can still hold; dropped with the bundle.
        self._displaced: dict[BundleKey, ReadSet] = {}
        #: Reach memo, dropped with the bundle:
        #: key -> (topology_version, reach).
        self._reach: dict[BundleKey, tuple[int, frozenset]] = {}
        #: frozenset(hosts) -> frozenset of link resource keys (memoized
        #: per topology version via _edges_version).
        self._edge_sets: dict[frozenset, frozenset] = {}
        self._edges_version = -1

    # -- records -------------------------------------------------------------

    def holds(self, key: BundleKey, state: "BundleState") -> bool:
        """Whether re-evaluating this bundle is provably a no-op: the
        record of its latest stable no-op holds over its scan and reads,
        or, failing that, the record that one displaced does; the record
        that holds becomes the latest."""
        engine = self.controller._engine
        placed = self.controller.view.configuration_of(key[0])
        record = self._no_ops.get(key)
        if record is None or engine.holds(record, state.chosen, placed):
            return record is not None
        displaced = self._displaced.get(key)
        if displaced is None or \
                not engine.holds(displaced, state.chosen, placed):
            return False
        self._no_ops[key] = displaced
        self._displace(key, record, state.chosen, placed)
        return True

    def note_no_op(self, key: BundleKey, state: "BundleState",
                   reads: ReadSet | None = None) -> None:
        """Record a stable no-op of this bundle: what it read (``None``:
        nothing, an unconfigured bundle, which covers its reach).  The
        record it replaces is kept as the bundle's displaced record while
        it can still hold."""
        engine = self.controller._engine
        placed = self.controller.view.configuration_of(key[0])
        if reads is None:
            reads = engine.read_set(state.chosen, placed)
        reads.reach = self._reach_of(key, state)
        if reads.boundary is None:
            reads.covers = reads.reach | reads.keys
        older = self._no_ops.get(key)
        if older is not None:
            self._displace(key, older, state.chosen, placed)
        self._no_ops[key] = reads

    def _displace(self, key: BundleKey, record: ReadSet, chosen: object,
                  placed: object) -> None:
        """Keep ``record``, just replaced as the bundle's latest, as its
        displaced record if it can still hold; otherwise keep none."""
        if self.controller._engine.alive(record, chosen, placed):
            self._displaced[key] = record
        else:
            self._displaced.pop(key, None)

    def now(self) -> ReadSet:
        """An empty record taken now: the clock a component settled by
        the pass starting now is valid from."""
        return self.controller._engine.read_set(None, None)

    def settled(self, part: Component) -> bool:
        """Whether a pass settled this component and its record holds."""
        record = self._no_ops.get(part[0])
        return record is not None and \
            self.controller._engine.holds(record, None, None)

    def settle(self, part: Component, since: ReadSet) -> None:
        """Every internal pair of this component ended the pass that
        started at ``since`` in a sign-only no-op: record it over the
        members' reach and reads, replacing its older member sets'."""
        members, keys = part[0], set(part[1])
        for key in members:
            record = self._no_ops.get(key)
            if record is not None:
                keys |= record.keys
        for stale in [k for k in self._no_ops
                      if isinstance(k, frozenset) and k & members]:
            del self._no_ops[stale]
        record = copy.copy(since)
        record.covers = frozenset(keys)
        self._no_ops[members] = record

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
        return self.controller._config_cache.peek_space_len(state.bundle)

    def remove_app(self, app_key: str) -> None:
        """Drop every bundle of an ended/evicted application: its reach,
        its records and every settled member set it belonged to."""
        self._reach = {key: hit for key, hit in self._reach.items()
                       if key[0] != app_key}
        self._displaced = {key: record
                           for key, record in self._displaced.items()
                           if key[0] != app_key}
        self._no_ops = {
            key: record for key, record in self._no_ops.items()
            if not (any(member[0] == app_key for member in key)
                    if isinstance(key, frozenset) else key[0] == app_key)}

    # -- components ----------------------------------------------------------

    def components(self, entries: Iterable[tuple[BundleKey, "BundleState"]]
                   ) -> list[Component]:
        """Connected components of these bundles over shared reach.

        Bundles in different components share no host and no link their
        evaluations could read, so neither's reconfiguration changes
        anything the other's evaluation reads.
        """
        parts: list[tuple[set, set]] = []
        for key, state in entries:
            members, reach = {key}, set(self._reach_of(key, state))
            kept = []
            for part in parts:
                if part[1].isdisjoint(reach):
                    kept.append(part)
                else:
                    members |= part[0]
                    reach |= part[1]
            parts = kept + [(members, reach)]
        return [(frozenset(members), frozenset(reach))
                for members, reach in parts]

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
        cluster = self.controller.cluster
        tv = cluster.topology_version
        hit = self._reach.get(key)
        if hit is not None and hit[0] == tv:
            return hit[1]
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
        reach already spans the whole cluster (the component then joins
        everything through host keys alone).
        """
        cluster = self.controller.cluster
        if self._edges_version != cluster.topology_version:
            self._edge_sets.clear()
            self._edges_version = cluster.topology_version
        hit = self._edge_sets.get(hosts)
        if hit is not None:
            return hit
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

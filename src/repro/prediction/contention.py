"""The system view: who shares what, for contention-aware prediction.

Harmony's default model scales resource requirements "to reflect resource
contention".  To do that it needs a picture of every *proposed* placement at
once: a :class:`SystemView` accumulates the configurations the optimizer is
currently considering and answers, per node, how many applications would
compute there and, per link, how many flows would cross it.

The view deliberately models contention the way a processor-sharing server
behaves in steady state: a node serving ``k`` concurrent applications gives
each a ``1/k`` share, so CPU times stretch by ``k``; likewise link
bandwidth.  That is exactly the mechanism that produces the paper's
Figure 7 shape (two query-shipping clients -> double response time).

Besides the contention queries the view is the optimizer's *transactional*
substrate: :meth:`SystemView.place` and :meth:`SystemView.remove` return a
:class:`PlacementToken` describing exactly what changed, so candidate
trials can mutate the live view and roll back (see
:mod:`repro.controller.trial`) instead of deep-copying the whole view per
candidate.  Internally every placement is indexed by the nodes it computes
on and the physical links its traffic crosses (its
:class:`PlacementFootprint`); contention queries read those indexes in
O(sharers) instead of scanning every placed configuration, and
:meth:`apps_affected_by` exposes the *dirty set* — the applications whose
predictions can change when a given footprint appears or disappears.  The
footprint is also the placement *compiled* for the default model: the walk
that indexes it records the rows the model evaluates, so a prediction never
re-walks a cluster path.  A compile reads the hops of each host pair, and
each host's speed, from a table the view keeps for the current topology,
so a candidate's compile walks no path the view has compiled before.  The
cluster tells the view when its graph changes
(:meth:`SystemView.topology_changed`, which drops that table), so no query
checks for that.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment
from repro.cluster.node import SimNode
from repro.cluster.topology import Cluster
from repro.errors import AllocationError, SimulationError

__all__ = ["PlacedConfiguration", "PlacementFootprint", "PlacementToken",
           "SystemView", "sojourn"]

#: A physical link is identified by its (unordered) endpoint pair; the
#: cluster forbids duplicate links between the same two hosts.
LinkKey = frozenset


@dataclass
class PlacedConfiguration:
    """One application's proposed configuration and placement."""

    app_key: str
    demands: ConcreteDemands
    assignment: Assignment


@dataclass
class PlacementFootprint:
    """What one placed configuration contributes to — and reads from.

    ``cpu`` maps hostname to the reference seconds of each CPU-consuming
    demand placed there (its CPU *write* set, which is also its CPU *read*
    set: contention at a node only matters to applications computing on
    it).  ``flows`` maps each physical link crossed by an explicit link
    demand to the per-flow megabytes (the link *write* set).  ``read_links``
    additionally includes the links general ``communication`` traffic is
    charged on (all-pairs paths) — traffic that *reads* link contention but
    does not add flows other applications see.

    The remaining fields are the default model's rows, recorded in the same
    walk: ``cpu_rows`` holds ``(host, seconds, speed)`` per CPU demand and
    ``link_rows`` holds ``(megabytes, hops)`` per link demand, both in
    demand order, where a hop is ``(link key, bandwidth, latency)``;
    ``comm_hops`` are the distinct hops of every ``communication`` host
    pair, each charged ``comm_mb``.  ``fault`` is ``(error type, message)``
    of the first demand the model cannot evaluate (unplaced, or on
    disconnected or unknown hosts); the index skips such demands.
    """

    cpu: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    flows: Mapping[LinkKey, tuple[float, ...]] = field(default_factory=dict)
    read_links: frozenset = frozenset()
    cpu_rows: tuple = ()
    link_rows: tuple = ()
    comm_mb: float = 0.0
    comm_hops: tuple = ()
    fault: tuple | None = None


_EMPTY_FOOTPRINT = PlacementFootprint()


@dataclass
class PlacementToken:
    """Undo/delta record for one :meth:`SystemView.place` / ``remove``.

    ``removed``/``removed_footprint`` describe the configuration that was
    displaced (``None`` when the application was not placed before);
    ``added``/``added_footprint`` the one installed (``None`` for a pure
    removal).  :class:`~repro.controller.trial.ViewTrial` replays tokens in
    reverse to roll back; the delta predictor unions the affected sets of
    both footprints to obtain the dirty set of the mutation.
    """

    app_key: str
    removed: PlacedConfiguration | None
    removed_footprint: PlacementFootprint | None
    added: PlacedConfiguration | None
    added_footprint: PlacementFootprint | None
    #: The view's version before this mutation; rollback restores it, so
    #: a fully rolled-back trial leaves the version untouched and caches
    #: keyed on it (the TrialEngine's live predictions) stay valid.
    version_before: int = 0


class SystemView:
    """Aggregated proposed load over a cluster.

    Besides the configurations Harmony itself placed, the view carries
    *external* load estimates — competing work "out of Harmony's control
    (such as network traffic due to other applications)" that the
    controller measures through the metric interface.  External load is
    expressed as equivalent concurrent consumers per node/link; each
    stretches co-located work like an equal-length processor-sharing
    competitor (the conservative assumption when only a load count, not
    a demand, is observable).

    ``version`` increments on every observable mutation (placements,
    external load, topology-triggered reindex); prediction caches key on
    it to detect staleness.  The view registers with its cluster, which
    calls :meth:`topology_changed` after every node or batch of links it
    adds.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._configurations: dict[str, PlacedConfiguration] = {}
        self._external_cpu: dict[str, float] = {}
        self._external_flows: dict[LinkKey, float] = {}
        # -- incremental contention indexes --------------------------------
        self._footprints: dict[str, PlacementFootprint] = {}
        #: hostname -> app_key -> seconds of each CPU demand placed there
        self._host_entries: dict[str, dict[str, tuple[float, ...]]] = {}
        self._host_counts: dict[str, int] = {}
        #: physical link -> app_key -> megabytes of each flow crossing it
        self._link_entries: dict[LinkKey, dict[str, tuple[float, ...]]] = {}
        self._link_counts: dict[LinkKey, int] = {}
        #: physical link -> apps whose prediction reads its contention
        self._link_readers: dict[LinkKey, set[str]] = {}
        #: hostname -> ``(load, -speed, insertion index, node)`` and the
        #: same entries sorted (:meth:`load_order`; indexes are unique, so
        #: comparison never reaches the node).  Mutations note the hosts
        #: they touch and a read re-keys those: the order follows *state*,
        #: which ``version`` cannot name — rollback rewinds that number.
        self._order_entries: dict[str, tuple] = {}
        self._order: list[tuple] | None = None  # None: rebuild on read
        self._order_dirty: set[str] = set()
        #: ``(demands, assignment, footprint)`` compiled last: a trial
        #: that predicts a configuration and then places it compiles it
        #: once.  Dropped with the topology.
        self._last_compiled: tuple | None = None
        #: What a compile reads of the graph, for the current topology:
        #: hostname -> speed, and ``(host_a, host_b)`` -> the hops of the
        #: path between them.  Bounded by the cluster's hosts and host
        #: pairs (a host or pair that faults is not kept); dropped with
        #: the topology.
        self._speeds: dict[str, float] = {}
        self._pair_hops: dict[tuple[str, str], tuple] = {}
        self.version: int = 0
        cluster.watch(self)

    # -- membership ----------------------------------------------------------

    def place(self, app_key: str, demands: ConcreteDemands,
              assignment: Assignment) -> PlacementToken:
        """Add or replace one application's proposed configuration.

        Returns a :class:`PlacementToken` a trial can use to roll the
        mutation back.  Replacing an existing placement keeps the
        application's position in :meth:`configurations` (matching plain
        ``dict`` update semantics), so prediction dictionaries built from
        the view keep a stable iteration order across trials.
        """
        version_before = self.version
        removed = self._configurations.get(app_key)
        removed_footprint = self._footprints.get(app_key)
        if removed is not None:
            self._unindex(app_key, removed_footprint)
        config = PlacedConfiguration(
            app_key=app_key, demands=demands, assignment=assignment)
        footprint = self._compile(demands, assignment)
        self._configurations[app_key] = config
        self._footprints[app_key] = footprint
        self._index(app_key, footprint)
        self.version += 1
        return PlacementToken(app_key=app_key, removed=removed,
                              removed_footprint=removed_footprint,
                              added=config, added_footprint=footprint,
                              version_before=version_before)

    def remove(self, app_key: str) -> PlacementToken:
        version_before = self.version
        removed = self._configurations.pop(app_key, None)
        removed_footprint = self._footprints.pop(app_key, None)
        if removed is not None:
            self._unindex(app_key, removed_footprint)
            self.version += 1
        return PlacementToken(app_key=app_key, removed=removed,
                              removed_footprint=removed_footprint,
                              added=None, added_footprint=None,
                              version_before=version_before)

    def restore(self, token: PlacementToken) -> None:
        """Undo one token (the trial rollback primitive)."""
        app_key = token.app_key
        current = self._footprints.get(app_key)
        if token.added is not None and app_key in self._configurations:
            self._unindex(app_key, current)
            if token.removed is None:
                del self._configurations[app_key]
                del self._footprints[app_key]
        if token.removed is not None:
            # Reinstall the displaced configuration, reusing its footprint
            # (placements and topology are unchanged under a trial).
            # Plain dict assignment: when the key is still present
            # (rollback of a replace) the app keeps its position in
            # :meth:`configurations`, so trial rollbacks never perturb
            # the objective's float-summation order — sweeps that *skip*
            # a bundle and sweeps that evaluate it leave the exact same
            # iteration order behind.
            self._configurations[app_key] = token.removed
            self._footprints[app_key] = token.removed_footprint or \
                self._footprint_for(token.removed.demands,
                                    token.removed.assignment)
            self._index(app_key, self._footprints[app_key])
        # A rolled-back mutation leaves no observable change, so the
        # version rewinds with it: version-keyed caches built before the
        # trial remain valid after it.
        self.version = token.version_before

    def configurations(self) -> list[PlacedConfiguration]:
        return list(self._configurations.values())

    def configuration_of(self, app_key: str) -> PlacedConfiguration | None:
        return self._configurations.get(app_key)

    def footprint_of(self, app_key: str) -> PlacementFootprint | None:
        """The indexed footprint of a placed application (or ``None``)."""
        return self._footprints.get(app_key)

    def compiled(self, demands: ConcreteDemands, assignment: Assignment,
                 app_key: str | None = None) -> PlacementFootprint:
        """The footprint of a configuration: the indexed one when
        ``app_key`` is placed with exactly these demands and assignment,
        otherwise the one compiled last for them, or compiled now (and
        handed to the :meth:`place` of that very configuration)."""
        placed = self._configurations.get(app_key)
        if placed is not None and placed.demands is demands and \
                placed.assignment is assignment:
            return self._footprints[app_key]
        return self._compile(demands, assignment)

    def _compile(self, demands: ConcreteDemands,
                 assignment: Assignment) -> PlacementFootprint:
        """The footprint compiled last when it is of these very objects,
        otherwise one compiled now, which becomes the last."""
        last = self._last_compiled
        if last is not None and last[0] is demands and last[1] is assignment:
            return last[2]
        footprint = self._footprint_for(demands, assignment)
        self._last_compiled = (demands, assignment, footprint)
        return footprint

    def contention_tables(self) -> tuple[Mapping, Mapping, Mapping,
                                         Mapping]:
        """What a compiled row is evaluated against, read-only: host ->
        app -> CPU seconds, host -> external consumers, link -> app ->
        flow megabytes, link -> external flows."""
        return (self._host_entries, self._external_cpu,
                self._link_entries, self._external_flows)

    # -- footprint maintenance -------------------------------------------------

    def _footprint_for(self, demands: ConcreteDemands,
                       assignment: Assignment) -> PlacementFootprint:
        """Index a configuration and compile its default-model rows.

        Walks the demands in the order the default model evaluates them,
        so ``fault`` is the error that evaluation would meet first.
        """
        placements = assignment.placements
        speeds = self._speeds
        fault = None
        cpu: dict[str, list[float]] = {}
        cpu_rows = []
        for demand in demands.nodes:
            seconds = demand.seconds
            if not seconds:
                continue
            hostname = placements.get(demand.local_name)
            if hostname is None:
                fault = fault or _unplaced(demand.local_name)
                continue
            speed = speeds.get(hostname)
            if speed is None:
                try:
                    speed = speeds[hostname] = \
                        self.cluster.node(hostname).speed
                except SimulationError as error:
                    fault = fault or (SimulationError, str(error))
            if seconds <= 0:
                continue
            cpu.setdefault(hostname, []).append(seconds)
            if speed is not None:
                cpu_rows.append((hostname, seconds, speed))
        flows: dict[LinkKey, list[float]] = {}
        link_rows = []
        for link_demand in demands.links:
            megabytes = link_demand.total_mb
            if megabytes <= 0:
                continue
            host_a = placements.get(link_demand.endpoint_a)
            host_b = placements.get(link_demand.endpoint_b)
            if host_a is None or host_b is None:
                fault = fault or _unplaced(link_demand.endpoint_a
                                           if host_a is None
                                           else link_demand.endpoint_b)
                continue
            if host_a == host_b:
                continue
            hops, error = self._hops(host_a, host_b)
            fault = fault or error
            for key, _, _ in hops:
                flows.setdefault(key, []).append(megabytes)
            link_rows.append((megabytes, hops))
        read_links = set(flows)
        comm_mb = demands.communication_mb or 0.0
        comm_hops: dict[LinkKey, tuple] = {}
        if comm_mb > 0:
            hosts = sorted(set(placements.values()))
            for i, host_a in enumerate(hosts):
                for host_b in hosts[i + 1:]:
                    hops, error = self._hops(host_a, host_b)
                    fault = fault or error
                    for hop in hops:
                        comm_hops.setdefault(hop[0], hop)
            read_links.update(comm_hops)
        return PlacementFootprint(
            cpu={host: tuple(values) for host, values in cpu.items()},
            flows={key: tuple(values) for key, values in flows.items()},
            read_links=frozenset(read_links),
            cpu_rows=tuple(cpu_rows), link_rows=tuple(link_rows),
            comm_mb=comm_mb, comm_hops=tuple(comm_hops.values()),
            fault=fault)

    def _hops(self, host_a: str, host_b: str) -> tuple[tuple, tuple | None]:
        """``(link key, bandwidth, latency)`` along the path, and the
        fault of disconnected endpoints (which have no hops).

        Read off the hop table when the pair was compiled before under
        this topology: a path, its links' bandwidth and latency are
        fixed until :meth:`topology_changed` drops the table."""
        hops = self._pair_hops.get((host_a, host_b))
        if hops is not None:
            return hops
        try:
            links = self.cluster.path_links(host_a, host_b)
        except SimulationError as error:
            return (), (SimulationError, str(error))
        hops = self._pair_hops[host_a, host_b] = tuple(
            (frozenset((link.host_a, link.host_b)), link.bandwidth_mbps,
             link.latency_seconds) for link in links), None
        return hops

    def _index(self, app_key: str, footprint: PlacementFootprint) -> None:
        self._order_dirty.update(footprint.cpu)
        for hostname, seconds in footprint.cpu.items():
            self._host_entries.setdefault(hostname, {})[app_key] = seconds
            self._host_counts[hostname] = \
                self._host_counts.get(hostname, 0) + len(seconds)
        for key, megabytes in footprint.flows.items():
            self._link_entries.setdefault(key, {})[app_key] = megabytes
            self._link_counts[key] = \
                self._link_counts.get(key, 0) + len(megabytes)
        for key in footprint.read_links:
            self._link_readers.setdefault(key, set()).add(app_key)

    def _unindex(self, app_key: str,
                 footprint: PlacementFootprint | None) -> None:
        if footprint is None:
            return
        self._order_dirty.update(footprint.cpu)
        for hostname, seconds in footprint.cpu.items():
            entries = self._host_entries.get(hostname)
            if entries is not None:
                entries.pop(app_key, None)
                if not entries:
                    del self._host_entries[hostname]
            count = self._host_counts.get(hostname, 0) - len(seconds)
            if count > 0:
                self._host_counts[hostname] = count
            else:
                self._host_counts.pop(hostname, None)
        for key, megabytes in footprint.flows.items():
            entries = self._link_entries.get(key)
            if entries is not None:
                entries.pop(app_key, None)
                if not entries:
                    del self._link_entries[key]
            count = self._link_counts.get(key, 0) - len(megabytes)
            if count > 0:
                self._link_counts[key] = count
            else:
                self._link_counts.pop(key, None)
        for key in footprint.read_links:
            readers = self._link_readers.get(key)
            if readers is not None:
                readers.discard(app_key)
                if not readers:
                    del self._link_readers[key]

    def topology_changed(self) -> None:
        """Reindex every footprint after the cluster graph changed.

        Called by :meth:`Cluster.add_node` and once per
        :meth:`Cluster.add_links` batch:
        node/link additions can reroute paths, invalidating the physical
        links recorded in footprints; placements themselves are unchanged.
        """
        self._order = None
        self._last_compiled = None
        self._speeds.clear()
        self._pair_hops.clear()
        self._footprints.clear()
        self._host_entries.clear()
        self._host_counts.clear()
        self._link_entries.clear()
        self._link_counts.clear()
        self._link_readers.clear()
        for app_key, config in self._configurations.items():
            footprint = self._footprint_for(config.demands,
                                            config.assignment)
            self._footprints[app_key] = footprint
            self._index(app_key, footprint)
        self.version += 1

    # -- dirty sets ------------------------------------------------------------

    def apps_affected_by(self, footprint: PlacementFootprint) -> set[str]:
        """Placed applications whose predictions read this footprint.

        The dirty-set contract of delta prediction: when a configuration
        with this footprint is added or removed, only the returned
        applications (plus the mutated one itself, and any application
        using an opaque performance model) can see their predicted
        response times change.  CPU contention is read exactly by the
        applications computing on the written nodes; link contention by
        the applications whose explicit *or* general-communication traffic
        crosses the written links.
        """
        affected: set[str] = set()
        for hostname in footprint.cpu:
            entries = self._host_entries.get(hostname)
            if entries:
                affected.update(entries)
        for key in footprint.flows:
            readers = self._link_readers.get(key)
            if readers:
                affected.update(readers)
        return affected

    # -- external (measured) load ----------------------------------------------

    def set_external_cpu_load(self, hostname: str, consumers: float) -> None:
        """Record measured competing CPU consumers on a node."""
        if consumers <= 0:
            self._external_cpu.pop(hostname, None)
        else:
            self._external_cpu[hostname] = consumers
        self._order_dirty.add(hostname)
        self.version += 1

    def external_cpu_load(self, hostname: str) -> float:
        return self._external_cpu.get(hostname, 0.0)

    def set_external_link_load(self, host_a: str, host_b: str,
                               flows: float) -> None:
        """Record measured competing flows on a direct link."""
        key = frozenset((host_a, host_b))
        if flows <= 0:
            self._external_flows.pop(key, None)
        else:
            self._external_flows[key] = flows
        self.version += 1

    def external_link_load(self, host_a: str, host_b: str) -> float:
        return self._external_flows.get(frozenset((host_a, host_b)), 0.0)

    # -- first-fit load order ----------------------------------------------------

    def _rekeyed(self, entry: tuple, excluded: int = 0) -> tuple:
        hostname = entry[3].hostname
        load = float(self._host_counts.get(hostname, 0) - excluded) \
            + self._external_cpu.get(hostname, 0.0)
        return (load, *entry[1:])

    def _keyed_entries(self) -> dict[str, tuple]:
        """hostname -> its maintained entry, re-keyed where state moved."""
        entries = self._order_entries
        if self._order is None:
            entries.clear()
            for index, node in enumerate(self.cluster.nodes()):
                entries[node.hostname] = self._rekeyed(
                    (0.0, -node.speed, index, node))
            self._order = sorted(entries.values())
            self._order_dirty.clear()
        if self._order_dirty:
            order = self._order
            for hostname in self._order_dirty & entries.keys():
                old, new = entries[hostname], self._rekeyed(entries[hostname])
                if new[0] != old[0]:
                    entries[hostname] = new
                    del order[bisect_left(order, old)]
                    insort(order, new)
            self._order_dirty.clear()
        return entries

    def _entry(self, hostname: str, own: Mapping[str, tuple]) -> tuple:
        """``hostname``'s entry as if the app computing ``own`` were not
        placed: the one key :meth:`load_order` and :meth:`order_key`
        read."""
        entry = self._order_entries[hostname]
        seconds = own.get(hostname)
        return self._rekeyed(entry, len(seconds)) if seconds else entry

    def load_order(self, nodes: Sequence[SimNode] | None = None,
                   exclude_app: str | None = None) -> list[SimNode]:
        """Nodes in first-fit preference order: idle first, then faster.

        Exactly a stable sort of the cluster's nodes by ``(cpu consumers
        + external load, -speed)``, ties included, read off a maintained
        order.  ``nodes`` restricts it to a subset, stably sorted by the
        maintained keys, so a pattern-scoped bundle pays O(|nodes|), not
        O(cluster).  ``exclude_app`` orders as if that application were
        not placed, by re-keying its own hosts only.
        """
        entries = self._keyed_entries()
        own = self._footprints.get(exclude_app, _EMPTY_FOOTPRINT).cpu
        if nodes is not None:
            return sorted(nodes, key=lambda node: self._entry(
                node.hostname, own)[:2])
        order = self._order
        if own:
            order = order.copy()
            for hostname in own:
                if hostname in entries:
                    del order[bisect_left(order, entries[hostname])]
                    insort(order, self._entry(hostname, own))
        return [entry[3] for entry in order]

    def order_key(self, hostname: str,
                  exclude_app: str | None = None) -> tuple:
        """Where ``hostname`` sorts in :meth:`load_order` with
        ``exclude_app`` excluded: ``(load, -speed, insertion index)``,
        unique per host.  A first-fit order over cluster-order nodes is
        exactly the sort by this key."""
        self._keyed_entries()
        return self._entry(hostname, self._footprints.get(
            exclude_app, _EMPTY_FOOTPRINT).cpu)[:3]

    def orders_before(self, keys, boundary: tuple,
                      exclude_app: str | None = None) -> bool:
        """Whether a host among ``keys`` has an :meth:`order_key` below
        ``boundary``; keys that name no host (links) are skipped."""
        entries = self._keyed_entries()
        own = self._footprints.get(exclude_app, _EMPTY_FOOTPRINT).cpu
        for key in keys:
            if key in entries and self._entry(key, own)[:3] < boundary:
                return True
        return False

    # -- contention queries ----------------------------------------------------

    def cpu_consumers(self, hostname: str) -> int:
        """Number of placed node demands with CPU work on ``hostname``."""
        return self._host_counts.get(hostname, 0)

    def flows_between(self, host_a: str, host_b: str) -> int:
        """Number of placed link demands whose path uses link (a, b)."""
        if host_a == host_b:
            return 0
        if self.cluster.link_between(host_a, host_b) is None:
            return 0
        return self._link_counts.get(frozenset((host_a, host_b)), 0)

    def contention_factor(self, hostname: str) -> float:
        """CPU stretch factor on a node: max(1, consumers + external)."""
        return float(max(1.0, self.cpu_consumers(hostname)
                         + self.external_cpu_load(hostname)))


def sojourn(own: float, entries: Mapping[str, tuple[float, ...]] | None,
            own_app_key: str | None, external: float) -> float:
    """``own + sum_j min(v_j, own) + external * own``, correctly rounded.

    ``math.fsum`` makes the sum a function of the competitors' multiset,
    not of the order they were indexed in: a rolled-back trial re-inserts
    its application at the end of a host's entries, and the estimate of
    every other job there must not move in its last bit.
    """
    terms = [own]
    if entries:
        for app_key, values in entries.items():
            if app_key != own_app_key:
                for value in values:
                    terms.append(value if value < own else own)
    if external:
        terms.append(external * own)
    return math.fsum(terms)


def _unplaced(local_name: str) -> tuple:
    """The fault of a demand on a resource the assignment does not place
    (the error :meth:`Assignment.hostname_of` raises)."""
    return (AllocationError,
            f"assignment has no placement for {local_name!r}")


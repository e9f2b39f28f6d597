"""Node, link, memory-account, and topology behaviour."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.instantiate import (
    ConcreteDemands,
    LinkDemand,
    NodeDemand,
)
from repro.allocation.matcher import Assignment, Matcher
from repro.cluster import Cluster
from repro.cluster.node import MemoryAccount
from repro.errors import AllocationError, SimulationError
from repro.prediction import SystemView
from repro.rsl.model import NodeAdvertisement
from tests.test_import_boundaries import loaded_after


@st.composite
def topologies(draw):
    """Up to 14 nodes in random order, links added in random order and
    direction: ``(hostnames, [(host_a, host_b), ...])``."""
    count = draw(st.integers(min_value=2, max_value=14))
    names = [f"h{i}" for i in draw(st.permutations(range(count)))]
    pairs = draw(st.lists(
        st.sampled_from(list(itertools.combinations(names, 2))),
        unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    return names, [(b, a) if flip else (a, b)
                   for (a, b), flip in zip(pairs, flips)]


class TestSimNode:
    def test_compute_scales_with_speed(self, kernel):
        cluster = Cluster(kernel)
        fast = cluster.add_node("fast", speed=2.0)
        done = {}

        def job():
            yield fast.compute(10.0)
            done["t"] = kernel.now
        kernel.spawn(job())
        kernel.run()
        assert done["t"] == pytest.approx(5.0)

    def test_reference_speed_node(self, kernel):
        cluster = Cluster(kernel)
        node = cluster.add_node("ref", speed=1.0)
        done = {}

        def job():
            yield node.compute(7.0)
            done["t"] = kernel.now
        kernel.spawn(job())
        kernel.run()
        assert done["t"] == pytest.approx(7.0)

    def test_advertisement_matches_node(self, kernel):
        cluster = Cluster(kernel)
        node = cluster.add_node("n", speed=1.5, memory_mb=512, os="aix")
        advert = node.advertisement()
        assert advert == NodeAdvertisement(hostname="n", speed=1.5,
                                           memory=512, os="aix",
                                           attributes={})

    def test_invalid_speed_rejected(self, kernel):
        cluster = Cluster(kernel)
        with pytest.raises(SimulationError):
            cluster.add_node("bad", speed=0)


class TestMemoryAccount:
    def test_reserve_release_cycle(self):
        account = MemoryAccount(total_mb=100)
        account.reserve("a", 40)
        account.reserve("b", 30)
        assert account.available_mb == pytest.approx(30)
        assert account.release("a") == 40
        assert account.available_mb == pytest.approx(70)

    def test_additive_reservations_per_holder(self):
        account = MemoryAccount(total_mb=100)
        account.reserve("a", 20)
        account.reserve("a", 30)
        assert account.held_by("a") == 50
        assert account.release("a") == 50

    def test_overcommit_rejected(self):
        account = MemoryAccount(total_mb=100)
        account.reserve("a", 90)
        with pytest.raises(AllocationError):
            account.reserve("b", 20)

    def test_release_unknown_holder_returns_zero(self):
        assert MemoryAccount(total_mb=10).release("ghost") == 0.0

    def test_negative_reservation_rejected(self):
        with pytest.raises(SimulationError):
            MemoryAccount(total_mb=10).reserve("a", -1)


class TestSimLink:
    def test_transfer_time_is_size_over_bandwidth(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        link = cluster.add_link("a", "b", bandwidth_mbps=10.0)
        done = {}

        def job():
            yield link.transfer(40.0)
            done["t"] = kernel.now
        kernel.spawn(job())
        kernel.run()
        assert done["t"] == pytest.approx(4.0)

    def test_concurrent_transfers_share_bandwidth(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        link = cluster.add_link("a", "b", bandwidth_mbps=10.0)
        finish = []

        def job():
            yield link.transfer(40.0)
            finish.append(kernel.now)
        kernel.spawn(job())
        kernel.spawn(job())
        kernel.run()
        assert finish == [pytest.approx(8.0), pytest.approx(8.0)]

    def test_latency_added_once(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        link = cluster.add_link("a", "b", bandwidth_mbps=10.0,
                                latency_seconds=0.5)
        done = {}

        def job():
            yield link.transfer(10.0)
            done["t"] = kernel.now
        kernel.spawn(job())
        kernel.run()
        assert done["t"] == pytest.approx(1.5)

    def test_bandwidth_reservation_accounting(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        link = cluster.add_link("a", "b", bandwidth_mbps=10.0)
        link.reserve("app1", 6.0)
        assert link.available_mbps == pytest.approx(4.0)
        with pytest.raises(AllocationError):
            link.reserve("app2", 5.0)
        link.release("app1")
        assert link.available_mbps == pytest.approx(10.0)

    def test_pipe_is_built_by_the_first_transfer_only(self, kernel):
        cluster = Cluster.full_mesh(["a", "b", "c"], kernel=kernel)
        link = cluster.link_between("a", "b")
        link.reserve("app", 5.0)                # reserving builds nothing
        assert link.active_transfers == 0
        assert all(each._pipe is None for each in cluster.links())

        done = []

        def job():
            yield link.transfer(40.0)
            done.append(kernel.now)
        kernel.spawn(job())
        kernel.run(until=0.5)
        pipe = link._pipe
        assert pipe is not None and link.active_transfers == 1
        kernel.spawn(job())
        kernel.run()
        assert link._pipe is pipe and len(done) == 2
        assert link.active_transfers == 0
        assert cluster.link_between("a", "c")._pipe is None

    def test_reservations_are_built_by_the_first_reserve(self):
        cluster = Cluster.full_mesh(["a", "b", "c"])
        link = cluster.link_between("a", "b")
        assert all(each._reservations is None for each in cluster.links())
        assert link.release("app") == 0.0       # nothing held, nothing built
        assert link._reservations is None
        link.reserve("app", 5.0)
        link.reserve("app", 1.0)
        assert link.release("app") == pytest.approx(6.0)
        assert link.available_mbps == pytest.approx(40.0)
        assert cluster.link_between("a", "c")._reservations is None
        assert not hasattr(link, "__dict__")    # slots: 1,128 in a mesh


class TestClusterTopology:
    def test_full_mesh_link_count(self):
        cluster = Cluster.full_mesh(["a", "b", "c", "d"])
        assert len(list(cluster.links())) == 6

    def test_star_topology(self):
        cluster = Cluster.star("hub", ["l1", "l2", "l3"])
        assert len(list(cluster.links())) == 3
        assert cluster.link_between("l1", "l2") is None
        assert cluster.link_between("hub", "l1") is not None

    def test_duplicate_node_rejected(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        with pytest.raises(SimulationError):
            cluster.add_node("a")

    def test_duplicate_link_rejected(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        cluster.add_link("a", "b", 10)
        with pytest.raises(SimulationError,
                           match="duplicate link 'b' -- 'a'"):
            cluster.add_link("b", "a", 10)

    def test_self_link_rejected(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        with pytest.raises(SimulationError, match="self-link on 'a'"):
            cluster.add_link("a", "a", 10)

    def test_link_to_unknown_node_rejected(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        with pytest.raises(SimulationError,
                           match="link endpoint 'ghost' is not a cluster"):
            cluster.add_link("a", "ghost", 10)

    def test_full_mesh_rejects_a_repeated_hostname(self):
        with pytest.raises(SimulationError, match="duplicate node 'a'"):
            Cluster.full_mesh(["a", "b", "a"])

    @pytest.mark.parametrize("links, message", [
        ([("a", "b"), ("b", "a")], "duplicate link 'b' -- 'a'"),
        ([("a", "a")], "self-link on 'a'"),
        ([("a", "ghost")], "link endpoint 'ghost' is not a cluster node"),
    ])
    def test_topology_snapshot_links_are_checked(self, links, message):
        from repro.persistence.codec import cluster_from_topology
        node = {"speed": 1.0, "memory_mb": 64.0, "os": "linux"}
        topology = {
            "nodes": [dict(node, hostname=name) for name in ("a", "b")],
            "links": [[a, b, 40.0, 0.0] for a, b in links]}
        with pytest.raises(SimulationError, match=message):
            cluster_from_topology(topology)

    def test_path_links_direct(self):
        cluster = Cluster.full_mesh(["a", "b", "c"])
        links = cluster.path_links("a", "b")
        assert len(links) == 1
        assert {links[0].host_a, links[0].host_b} == {"a", "b"}

    def test_path_links_multi_hop(self, kernel):
        cluster = Cluster(kernel)
        for name in ("a", "b", "c"):
            cluster.add_node(name)
        cluster.add_link("a", "b", 10)
        cluster.add_link("b", "c", 20)
        links = cluster.path_links("a", "c")
        assert len(links) == 2

    def test_path_same_host_is_empty(self):
        cluster = Cluster.full_mesh(["a", "b"])
        assert cluster.path_links("a", "a") == []
        assert math.isinf(cluster.path_available_mbps("a", "a"))

    def test_disconnected_hosts_raise(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        with pytest.raises(SimulationError):
            cluster.path_links("a", "b")

    def test_path_available_is_bottleneck(self, kernel):
        cluster = Cluster(kernel)
        for name in ("a", "b", "c"):
            cluster.add_node(name)
        cluster.add_link("a", "b", 10)
        cluster.add_link("b", "c", 4)
        assert cluster.path_available_mbps("a", "c") == pytest.approx(4.0)

    @settings(max_examples=150, deadline=None)
    @given(topologies())
    def test_path_links_match_networkx_shortest_path(self, topology):
        """Every ordered pair's path is the one ``nx.shortest_path`` picks
        over the same graph built link by link, ties included, and it is
        refused exactly when networkx finds no path."""
        names, links = topology
        cluster = Cluster()
        graph = nx.Graph()
        for name in names:
            cluster.add_node(name)
            graph.add_node(name)
        for a, b in links:
            cluster.add_link(a, b, 40.0)
            graph.add_edge(a, b)
        for a, b in itertools.permutations(names, 2):
            try:
                path = nx.shortest_path(graph, a, b)
            except nx.NetworkXNoPath:
                with pytest.raises(SimulationError, match="no path"):
                    cluster.path_links(a, b)
                continue
            assert cluster.path_links(a, b) == [
                cluster.link_between(u, v) for u, v in zip(path, path[1:])]

    def test_path_links_see_a_link_added_after_a_query(self, kernel):
        chain = Cluster(kernel)
        for name in "abcde":
            chain.add_node(name)
        for a, b in zip("abcd", "bcde"):
            chain.add_link(a, b, 40.0)
        assert len(chain.path_links("a", "e")) == 4
        shortcut = chain.add_link("b", "e", 40.0)
        assert chain.path_links("a", "e") == [
            chain.link_between("a", "b"), shortcut]

    def test_cluster_loads_without_networkx(self):
        """A full mesh never routes over more than one hop, and a multi-hop
        path is found in tree: loading the cluster loads no networkx."""
        assert "networkx" not in loaded_after("import repro.cluster")

    def test_unknown_host_path_is_a_simulation_error(self):
        """An unknown hostname is refused as :class:`SimulationError`
        naming it, so the callers that treat one as "disconnected" do."""
        cluster = Cluster.star("hub", ["a", "b"])
        for host_a, host_b in (("a", "zz"), ("zz", "a")):
            with pytest.raises(SimulationError, match="'zz'"):
                cluster.path_links(host_a, host_b)
            with pytest.raises(SimulationError, match="'zz'"):
                cluster.path_available_mbps(host_a, host_b)
        demands = ConcreteDemands(
            "o", links=(LinkDemand("x", "y", 1.0),))
        footprint = SystemView(cluster).compiled(
            demands, Assignment({"x": "a", "y": "zz"}))
        assert not footprint.flows and \
            footprint.fault == (SimulationError, "unknown node 'zz'")
        assert not Matcher(cluster)._links_feasible(
            demands, {"x": "a", "y": "zz"}, partial=False)

    def test_unknown_node_lookup_raises(self):
        cluster = Cluster.full_mesh(["a"])
        with pytest.raises(SimulationError):
            cluster.node("ghost")


# -- batches of links ---------------------------------------------------------

def one_by_one(names, rows):
    """The oracle: the same rows through ``add_link``, one call each."""
    cluster = Cluster()
    for name in names:
        cluster.add_node(name)
    for row in rows:
        cluster.add_link(*row)
    return cluster


def in_one_batch(names, rows):
    cluster = Cluster()
    for name in names:
        cluster.add_node(name)
    cluster.add_links(rows)
    return cluster


def routing(cluster):
    """Everything routing reads, with links named by their position in
    ``links()``: the link rows, and for every ordered host pair the
    direct link and the path (or the error that refuses one)."""
    links = list(cluster.links())
    position = {id(link): index for index, link in enumerate(links)}
    shape = [(link.host_a, link.host_b, link.bandwidth_mbps,
              link.latency_seconds) for link in links]
    hosts = cluster.hostnames()
    answers = {}
    for a, b in itertools.product(hosts, repeat=2):
        direct = cluster.link_between(a, b)
        try:
            path = [position[id(link)] for link in cluster.path_links(a, b)]
        except SimulationError as exc:
            path = str(exc)
        answers[a, b] = (None if direct is None else position[id(direct)],
                         path)
    return shape, answers


def line_rows():
    names = [f"h{i}" for i in range(6)]
    return names, [(a, b, 10.0 + i, 0.001 * i)
                   for i, (a, b) in enumerate(zip(names, names[1:]))]


def star_rows():
    names = ["hub"] + [f"leaf{i}" for i in range(5)]
    return names, [("hub", leaf, 40.0, 0.0) for leaf in names[1:]]


def mesh_rows():
    names = [f"m{i}" for i in range(6)]
    return names, [(a, b, 40.0, 0.0)
                   for a, b in itertools.combinations(names, 2)]


def ring_rows():
    """Two equal-length routes between opposite hosts: a BFS tie."""
    names = [f"r{i}" for i in range(6)]
    return names, [(a, b, 20.0, 0.0)
                   for a, b in zip(names, names[1:] + names[:1])]


class Watcher:
    def __init__(self):
        self.calls = 0

    def topology_changed(self):
        self.calls += 1


class TestAddLinks:
    """``add_links`` is a loop of ``add_link`` that changes the topology
    once."""

    @pytest.mark.parametrize("shape", [line_rows, star_rows, mesh_rows,
                                       ring_rows])
    def test_a_batch_routes_as_links_added_one_by_one(self, shape):
        names, rows = shape()
        assert routing(in_one_batch(names, rows)) == \
            routing(one_by_one(names, rows))

    @settings(max_examples=60, deadline=None)
    @given(topologies())
    def test_random_batches_route_as_links_added_one_by_one(self, topology):
        names, pairs = topology
        rows = [(a, b, 40.0, 0.0) for a, b in pairs]
        assert routing(in_one_batch(names, rows)) == \
            routing(one_by_one(names, rows))

    def test_the_constructors_build_what_add_link_built(self):
        names, rows = mesh_rows()
        assert routing(Cluster.full_mesh(names)) == \
            routing(one_by_one(names, rows))
        names, rows = star_rows()
        assert routing(Cluster.star(names[0], names[1:])) == \
            routing(one_by_one(names, rows))

    @pytest.mark.parametrize("existing, rows, message", [
        ([], [("a", "b", 40.0, 0.0), ("a", "ghost", 40.0, 0.0)],
         "link endpoint 'ghost' is not a cluster node"),
        ([], [("ghost", "a", 40.0, 0.0)],
         "link endpoint 'ghost' is not a cluster node"),
        ([], [("a", "b", 40.0, 0.0), ("c", "c", 40.0, 0.0)],
         "self-link on 'c'"),
        ([], [("a", "b", 40.0, 0.0), ("b", "c", 40.0, 0.0),
              ("b", "a", 40.0, 0.0)],
         "duplicate link 'b' -- 'a'"),
        ([("a", "b", 40.0, 0.0)], [("b", "c", 40.0, 0.0),
                                   ("a", "b", 40.0, 0.0)],
         "duplicate link 'a' -- 'b'"),
        ([], [("a", "b", 40.0, 0.0), ("b", "c", 0.0, 0.0)],
         "bandwidth must be positive"),
        ([], [("a", "b", 40.0, -1.0)], "latency must be non-negative"),
    ], ids=["unknown", "unknown-first", "self", "duplicate-in-batch",
            "duplicate-of-existing", "bandwidth", "latency"])
    def test_a_bad_row_raises_what_add_link_raises(self, existing, rows,
                                                   message):
        """The rows before the bad one stay added, as in the loop, and
        are one topology change; a batch that added nothing is none."""
        names = ["a", "b", "c"]
        oracle = one_by_one(names, existing)
        with pytest.raises(SimulationError, match=message) as looped:
            for row in rows:
                oracle.add_link(*row)
        cluster = one_by_one(names, existing)
        watcher = Watcher()
        cluster.watch(watcher)
        version = cluster.topology_version
        with pytest.raises(SimulationError, match=message) as batched:
            cluster.add_links(rows)
        assert str(batched.value) == str(looped.value)
        assert routing(cluster) == routing(oracle)
        changed = len(list(cluster.links())) > len(existing)
        assert cluster.topology_version == version + changed
        assert watcher.calls == changed

    def test_one_call_is_one_topology_change(self):
        names, rows = mesh_rows()
        cluster = in_one_batch(names, [])
        watchers = [Watcher(), Watcher()]
        for watcher in watchers:
            cluster.watch(watcher)
        version = cluster.topology_version
        added = cluster.add_links(rows)
        assert added == list(cluster.links()) and len(added) == 15
        assert cluster.topology_version == version + 1
        assert [watcher.calls for watcher in watchers] == [1, 1]
        cluster.add_node("x")
        cluster.add_link("m0", "x", 1.0)
        assert cluster.topology_version == version + 3
        assert [watcher.calls for watcher in watchers] == [3, 3]

    def test_an_empty_batch_changes_nothing(self):
        cluster = Cluster.full_mesh(["a", "b"])
        watcher = Watcher()
        cluster.watch(watcher)
        version = cluster.topology_version
        assert cluster.add_links([]) == []
        assert cluster.topology_version == version and watcher.calls == 0

    def test_a_watching_view_equals_a_fresh_one_after_a_batch(self):
        """``TestTopologyGrowth`` with the new links in one batch: the
        view reroutes every footprint once, to what a fresh view builds."""
        cluster = Cluster()
        for host in ("a", "b", "c", "d"):
            cluster.add_node(host)
        cluster.add_links([("a", "b", 10.0, 0.01), ("b", "c", 20.0, 0.02),
                           ("c", "d", 20.0, 0.02)])
        view = SystemView(cluster)
        spans = ConcreteDemands(
            "o", nodes=(NodeDemand("x", seconds=3.0),
                        NodeDemand("y", seconds=1.0)),
            links=(LinkDemand("x", "y", 6.0),), communication_mb=2.0)
        placements = {"A0": {"x": "a", "y": "c"}, "A1": {"x": "b", "y": "d"},
                      "A2": {"x": "a", "y": "d"}}
        for key, hosts in placements.items():
            view.place(key, spans, Assignment(hosts))
        version = view.version

        cluster.add_links([("a", "c", 5.0, 0.005), ("a", "d", 5.0, 0.005)])

        assert view.version == version + 1
        fresh = SystemView(cluster)
        for placed in view.configurations():
            fresh.place(placed.app_key, placed.demands, placed.assignment)
        for key in placements:
            assert view.footprint_of(key) == fresh.footprint_of(key)
            assert view.apps_affected_by(view.footprint_of(key)) == \
                fresh.apps_affected_by(fresh.footprint_of(key))
        for host_a, host_b in itertools.combinations("abcd", 2):
            assert view.flows_between(host_a, host_b) == \
                fresh.flows_between(host_a, host_b)
        assert view.footprint_of("A2").flows == {
            frozenset(("a", "d")): (6.0,)}

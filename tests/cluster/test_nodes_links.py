"""Node, link, memory-account, and topology behaviour."""

import math

import pytest

from repro.cluster import Cluster
from repro.cluster.node import MemoryAccount
from repro.errors import AllocationError, SimulationError
from repro.rsl.model import NodeAdvertisement


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

        def job():
            yield link.transfer(40.0)
        kernel.spawn(job())
        kernel.run(until=0.5)
        pipe = link._pipe
        assert pipe is not None and link.active_transfers == 1
        kernel.spawn(job())
        kernel.run()
        assert link._pipe is pipe and pipe.completed_jobs == 2
        assert link.active_transfers == 0
        assert cluster.link_between("a", "c")._pipe is None

    def test_connects_is_direction_free(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a")
        cluster.add_node("b")
        link = cluster.add_link("a", "b", 10)
        assert link.connects("b", "a")
        assert not link.connects("a", "a")


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
            "links": [{"host_a": a, "host_b": b, "bandwidth_mbps": 40.0,
                       "latency_seconds": 0.0} for a, b in links]}
        with pytest.raises(SimulationError, match=message):
            cluster_from_topology(topology)

    def test_path_links_direct(self):
        cluster = Cluster.full_mesh(["a", "b", "c"])
        links = cluster.path_links("a", "b")
        assert len(links) == 1
        assert links[0].connects("a", "b")

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

    def test_advertisements_cover_all_nodes(self):
        cluster = Cluster.full_mesh(["a", "b", "c"])
        adverts = cluster.advertisements()
        assert {advert.hostname for advert in adverts} == {"a", "b", "c"}

    def test_unknown_node_lookup_raises(self):
        cluster = Cluster.full_mesh(["a"])
        with pytest.raises(SimulationError):
            cluster.node("ghost")

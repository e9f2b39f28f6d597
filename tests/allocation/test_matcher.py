"""Matching demands to cluster nodes: first-fit, constraints, links."""

import pytest

from repro.allocation import Matcher, MatchStrategy, instantiate_option
from repro.cluster import Cluster
from repro.errors import AllocationError
from repro.rsl import build_bundle
from tests.oracle.naive import sorted_preparation


def demands_for(rsl, option_name, variables=None):
    return instantiate_option(
        build_bundle(rsl).option_named(option_name), variables)


SIMPLE = """
harmonyBundle A b {
    {o {node worker {seconds 10} {memory 32} {replicate 2}}}}
"""

PICKY = """
harmonyBundle A b {
    {o {node big {seconds 10} {memory 96}}
       {node small {seconds 10} {memory 8}}}}
"""

LINKED = """
harmonyBundle A b {
    {o {node x {seconds 1} {memory 4}}
       {node y {seconds 1} {memory 4}}
       {link x y 5}}}
"""


class TestFirstFit:
    def test_first_fit_takes_insertion_order(self, small_cluster):
        matcher = Matcher(small_cluster)
        assignment = matcher.match(demands_for(SIMPLE, "o"))
        assert assignment.placements == {"worker[0]": "n0",
                                         "worker[1]": "n1"}

    def test_replicas_on_distinct_nodes(self, small_cluster):
        matcher = Matcher(small_cluster)
        assignment = matcher.match(demands_for(SIMPLE, "o"))
        assert len(assignment.hostnames()) == 2

    def test_memory_filter(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("tiny", memory_mb=16)
        cluster.add_node("roomy", memory_mb=128)
        assignment = Matcher(cluster).match(demands_for(PICKY, "o"))
        assert assignment.hostname_of("big") == "roomy"
        assert assignment.hostname_of("small") == "tiny"

    def test_backtracking_when_first_choice_blocks_later_demand(self, kernel):
        # big fits only on roomy; if small grabbed roomy first, matching
        # would fail without backtracking.
        cluster = Cluster(kernel)
        cluster.add_node("roomy", memory_mb=128)
        cluster.add_node("tiny", memory_mb=16)
        assignment = Matcher(cluster).match(demands_for(PICKY, "o"))
        assert assignment.hostname_of("big") == "roomy"

    def test_hostname_pattern_exact(self, small_cluster):
        rsl = """harmonyBundle A b {
            {o {node w {hostname n2} {seconds 1} {memory 4}}}}"""
        assignment = Matcher(small_cluster).match(demands_for(rsl, "o"))
        assert assignment.hostname_of("w") == "n2"

    def test_hostname_glob_pattern(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("db.example", memory_mb=64)
        cluster.add_node("web.example", memory_mb=64)
        rsl = """harmonyBundle A b {
            {o {node w {hostname db.*} {seconds 1} {memory 4}}}}"""
        assignment = Matcher(cluster).match(demands_for(rsl, "o"))
        assert assignment.hostname_of("w") == "db.example"

    def test_os_filter(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("l", os="linux")
        cluster.add_node("a", os="aix")
        rsl = """harmonyBundle A b {
            {o {node w {os aix} {seconds 1} {memory 4}}}}"""
        assignment = Matcher(cluster).match(demands_for(rsl, "o"))
        assert assignment.hostname_of("w") == "a"

    def test_infeasible_memory_raises(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("n", memory_mb=16)
        rsl = """harmonyBundle A b {
            {o {node w {seconds 1} {memory 64}}}}"""
        with pytest.raises(AllocationError, match="no feasible placement"):
            Matcher(cluster).match(demands_for(rsl, "o"))

    def test_more_replicas_than_nodes_raises(self, small_cluster):
        rsl = """harmonyBundle A b {
            {o {node w {seconds 1} {memory 4} {replicate 5}}}}"""
        with pytest.raises(AllocationError):
            Matcher(small_cluster).match(demands_for(rsl, "o"))

    def test_reserved_memory_blocks_new_match(self, small_cluster):
        for host in ("n0", "n1", "n2", "n3"):
            small_cluster.node(host).memory.reserve("other", 120)
        with pytest.raises(AllocationError):
            Matcher(small_cluster).match(demands_for(SIMPLE, "o"))

    def test_ignore_holders_reuses_own_reservation(self, small_cluster):
        for host in ("n0", "n1", "n2", "n3"):
            small_cluster.node(host).memory.reserve("me", 120)
        matcher = Matcher(small_cluster)
        assignment = matcher.match(demands_for(SIMPLE, "o"),
                                   ignore_holders={"me"})
        assert len(assignment) == 2


class TestStrategies:
    @pytest.fixture
    def uneven_cluster(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("small", memory_mb=40)
        cluster.add_node("large", memory_mb=200)
        return cluster

    def test_best_fit_minimizes_leftover(self, uneven_cluster):
        rsl = """harmonyBundle A b {
            {o {node w {seconds 1} {memory 32}}}}"""
        matcher = Matcher(uneven_cluster, strategy=MatchStrategy.BEST_FIT)
        assert matcher.match(
            demands_for(rsl, "o")).hostname_of("w") == "small"

    def test_worst_fit_maximizes_leftover(self, uneven_cluster):
        rsl = """harmonyBundle A b {
            {o {node w {seconds 1} {memory 32}}}}"""
        matcher = Matcher(uneven_cluster, strategy=MatchStrategy.WORST_FIT)
        assert matcher.match(
            demands_for(rsl, "o")).hostname_of("w") == "large"

    def test_order_key_overrides_strategy_order(self, small_cluster):
        matcher = Matcher(small_cluster)
        load = {"n0": 5.0, "n1": 0.0, "n2": 1.0, "n3": 0.0}
        assignment = matcher.match(
            demands_for(SIMPLE, "o"),
            prepared=sorted_preparation(small_cluster, lambda h: load[h]))
        assert assignment.placements == {"worker[0]": "n1",
                                         "worker[1]": "n3"}


class TestLinkFeasibility:
    def test_link_between_placed_nodes_checked(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a", memory_mb=64)
        cluster.add_node("b", memory_mb=64)
        # No link at all: the match must fail.
        with pytest.raises(AllocationError):
            Matcher(cluster).match(demands_for(LINKED, "o"))

    def test_link_via_path_accepted(self, kernel):
        cluster = Cluster(kernel)
        for name in ("a", "mid", "b"):
            cluster.add_node(name, memory_mb=64)
        cluster.add_link("a", "mid", 10)
        cluster.add_link("mid", "b", 10)
        assignment = Matcher(cluster).match(demands_for(LINKED, "o"))
        assert len(assignment) == 2

    def test_saturated_link_rejected(self, small_cluster):
        for link in small_cluster.links():
            link.reserve("hog", link.bandwidth_mbps)
        with pytest.raises(AllocationError):
            Matcher(small_cluster).match(demands_for(LINKED, "o"))

    def test_general_communication_requires_connectivity(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("a", memory_mb=64)
        cluster.add_node("b", memory_mb=64)
        rsl = """harmonyBundle A b {
            {o {node x {seconds 1} {memory 4}}
               {node y {seconds 1} {memory 4}}
               {communication 10}}}"""
        with pytest.raises(AllocationError):
            Matcher(cluster).match(demands_for(rsl, "o"))

    def test_assignment_lookup_error(self, small_cluster):
        assignment = Matcher(small_cluster).match(demands_for(SIMPLE, "o"))
        with pytest.raises(AllocationError):
            assignment.hostname_of("ghost")

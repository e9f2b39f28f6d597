"""SystemView contention accounting."""

import pytest

from repro.allocation import Matcher, instantiate_option
from repro.allocation.instantiate import (
    ConcreteDemands, LinkDemand, NodeDemand)
from repro.allocation.matcher import Assignment
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.prediction import SystemView
from repro.rsl import build_bundle
from tests.oracle.naive import copy_view
from tests.oracle.per_hop import (
    cpu_effective_seconds,
    cpu_seconds_on,
    transfer_effective_mb,
)


RSL = """
harmonyBundle A b {
    {o {node x {seconds 10} {memory 4}}
       {node y {seconds 2} {memory 4}}
       {link x y 8}}}
"""


@pytest.fixture
def view_with_two(small_cluster):
    view = SystemView(small_cluster)
    matcher = Matcher(small_cluster)
    for key in ("app1", "app2"):
        demands = instantiate_option(build_bundle(RSL).option_named("o"))
        assignment = matcher.match(demands)
        view.place(key, demands, assignment)
    return view


class TestMembership:
    def test_place_and_remove(self, view_with_two):
        assert len(view_with_two.configurations()) == 2
        view_with_two.remove("app1")
        assert len(view_with_two.configurations()) == 1
        view_with_two.remove("ghost")  # no-op

    def test_place_replaces_existing(self, small_cluster):
        view = SystemView(small_cluster)
        matcher = Matcher(small_cluster)
        demands = instantiate_option(build_bundle(RSL).option_named("o"))
        assignment = matcher.match(demands)
        view.place("app", demands, assignment)
        view.place("app", demands, assignment)
        assert len(view.configurations()) == 1

    def test_copy_is_independent(self, view_with_two):
        copy = copy_view(view_with_two)
        copy.remove("app1")
        assert view_with_two.configuration_of("app1") is not None


class TestCounting:
    def test_cpu_consumers(self, view_with_two):
        # Both apps match first-fit to the same two nodes.
        assert view_with_two.cpu_consumers("n0") == 2
        assert view_with_two.cpu_consumers("n1") == 2
        assert view_with_two.cpu_consumers("n2") == 0

    def test_cpu_seconds_on(self, view_with_two):
        assert cpu_seconds_on(view_with_two, "n0") == pytest.approx(20.0)
        assert cpu_seconds_on(view_with_two, "n1") == pytest.approx(4.0)

    def test_flows_between(self, view_with_two):
        assert view_with_two.flows_between("n0", "n1") == 2
        assert view_with_two.flows_between("n0", "n2") == 0
        assert view_with_two.flows_between("n0", "n0") == 0

    def test_contention_factor_floor_is_one(self, view_with_two):
        assert view_with_two.contention_factor("n3") == 1.0


class TestSojournEstimates:
    def test_effective_seconds_excludes_own_app(self, view_with_two):
        effective = cpu_effective_seconds(view_with_two, "n0", 10.0,
                                          own_app_key="app1")
        assert effective == pytest.approx(10.0 + 10.0)  # app2's 10 s only

    def test_effective_seconds_sum_min_form(self, view_with_two):
        # A 3-second probe against two 10-second residents: 3 + 3 + 3.
        effective = cpu_effective_seconds(view_with_two, "n0", 3.0)
        assert effective == pytest.approx(9.0)

    def test_zero_own_seconds(self, view_with_two):
        assert cpu_effective_seconds(view_with_two, "n0", 0.0) == 0.0

    def test_transfer_effective_mb(self, view_with_two):
        # Two resident 8 MB flows on n0--n1; a 5 MB probe: 5 + 5 + 5.
        effective = transfer_effective_mb(view_with_two, "n0", "n1", 5.0)
        assert effective == pytest.approx(15.0)

    def test_transfer_excludes_own_app(self, view_with_two):
        effective = transfer_effective_mb(view_with_two, "n0", "n1", 8.0,
                                          own_app_key="app2")
        assert effective == pytest.approx(16.0)

    def test_unused_link_has_no_contention(self, view_with_two):
        assert transfer_effective_mb(view_with_two, "n2", "n3", 5.0) == 5.0


class TestTopologyGrowth:
    """The cluster tells its views about a new link; no query has to
    check for one."""

    def test_new_link_reroutes_every_query_at_once(self):
        cluster = Cluster()
        for host in ("a", "b", "c"):
            cluster.add_node(host)
        cluster.add_link("a", "b", 10.0, 0.01)
        cluster.add_link("b", "c", 20.0, 0.02)
        controller = AdaptationController(cluster)
        view = controller.view
        spans = ConcreteDemands(
            "o", nodes=(NodeDemand("x", seconds=3.0),
                        NodeDemand("y", seconds=1.0)),
            links=(LinkDemand("x", "y", 6.0),), communication_mb=2.0)
        placements = {"A0": {"x": "a", "y": "c"}, "A1": {"x": "b", "y": "c"},
                      "A2": {"x": "a", "y": "b"}}
        for name, hosts in placements.items():
            instance = controller.register_app(name)
            controller.add_bundle(instance, build_bundle(
                "harmonyBundle App b {{o {node n {seconds 1}}}}"))
            view.place(instance.key, spans, Assignment(hosts))
        version = view.version
        assert view.flows_between("a", "b") == 2
        assert view.flows_between("b", "c") == 2

        cluster.add_link("a", "c", 5.0, 0.005)

        fresh = SystemView(cluster)
        for placed in view.configurations():
            fresh.place(placed.app_key, placed.demands, placed.assignment)
        assert view.footprint_of("A0.1").flows == {
            frozenset(("a", "c")): (6.0,)}
        for host_a, host_b in (("a", "b"), ("b", "c"), ("a", "c")):
            assert view.flows_between(host_a, host_b) == \
                fresh.flows_between(host_a, host_b) == 1
        for placed in view.configurations():
            key = placed.app_key
            assert view.footprint_of(key) == fresh.footprint_of(key)
            assert view.apps_affected_by(view.footprint_of(key)) == \
                fresh.apps_affected_by(fresh.footprint_of(key))
            assert controller.predict_app(view, placed) == \
                controller.predict_app(fresh, fresh.configuration_of(key))
        assert view.apps_affected_by(fresh.footprint_of("A0.1")) == \
            {"A0.1", "A1.2", "A2.3"}
        assert view.version > version

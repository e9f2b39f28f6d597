"""Prediction models: default contention model, explicit specs, callables.

The key cross-validation: the default model's sojourn estimates must agree
with what the fair-share simulator actually does (the PS closed form is
exact for simultaneous arrivals).  The compiled default model must also
return exactly what the per-hop formula (``tests.oracle.per_hop``) does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation import Matcher, instantiate_option
from repro.allocation.instantiate import (
    ConcreteDemands, LinkDemand, NodeDemand)
from repro.allocation.matcher import Assignment
from repro.cluster import Cluster, Kernel
from repro.controller import AdaptationController
from repro.errors import AllocationError, PredictionError, SimulationError
from repro.prediction import (
    CallableModel,
    DefaultModel,
    ExplicitSpecModel,
    SystemView,
    model_for_spec,
)
from repro.rsl import build_bundle
from tests.oracle.per_hop import per_hop_predict


def place(view, matcher, rsl, option, key, variables=None):
    demands = instantiate_option(
        build_bundle(rsl).option_named(option), variables)
    assignment = matcher.match(demands)
    view.place(key, demands, assignment)
    return demands, assignment


DB_RSL = """
harmonyBundle DBclient where {
    {QS {node server {hostname server0} {seconds 9} {memory 20}}
        {node client {seconds 1} {memory 2}}
        {link client server 2}}
    {DS {node server {hostname server0} {seconds 1} {memory 20}}
        {node client {memory >=32} {seconds 18}}
        {link client server 51}}}
"""


class TestDefaultModel:
    def test_unloaded_qs_prediction(self, star_cluster):
        view = SystemView(star_cluster)
        matcher = Matcher(star_cluster)
        demands, assignment = place(view, matcher, DB_RSL, "QS", "db1")
        predicted = DefaultModel().predict(demands, assignment, view,
                                           app_key="db1")
        # max(9 server, 1 client) + 2 MB / 40 MB/s
        assert predicted == pytest.approx(9.0 + 0.05)

    def test_two_qs_clients_share_server(self, star_cluster):
        view = SystemView(star_cluster)
        matcher = Matcher(star_cluster)
        demands1, assignment1 = place(view, matcher, DB_RSL, "QS", "db1")
        place(view, matcher, DB_RSL, "QS", "db2")
        predicted = DefaultModel().predict(demands1, assignment1, view,
                                           app_key="db1")
        # server phase doubles: 9 + 9 = 18; link shared: 2 + 2 = 4 MB.
        assert predicted == pytest.approx(18.0 + 0.1)

    def test_small_competitor_adds_only_its_own_length(self, star_cluster):
        view = SystemView(star_cluster)
        matcher = Matcher(star_cluster)
        demands1, assignment1 = place(view, matcher, DB_RSL, "QS", "db1")
        place(view, matcher, DB_RSL, "DS", "db2")  # 1 s at the server
        predicted = DefaultModel().predict(demands1, assignment1, view,
                                           app_key="db1")
        # sum-min: 9 (own) + min(1, 9) = 10 at the server.
        assert predicted == pytest.approx(10.0 + 0.05, abs=0.2)

    def test_speed_scales_cpu_phase(self, kernel):
        cluster = Cluster(kernel)
        cluster.add_node("server0", speed=2.0, memory_mb=128)
        cluster.add_node("c", speed=1.0, memory_mb=128)
        cluster.add_link("server0", "c", 40)
        view = SystemView(cluster)
        matcher = Matcher(cluster)
        demands, assignment = place(view, matcher, DB_RSL, "QS", "db1")
        predicted = DefaultModel().predict(demands, assignment, view,
                                           app_key="db1")
        assert predicted == pytest.approx(4.5 + 0.05)

    def test_prediction_matches_simulation(self):
        """The default model agrees with the simulator it abstracts."""
        kernel = Kernel()
        cluster = Cluster.star("server0", ["c1", "c2"], kernel=kernel,
                               memory_mb=128, bandwidth_mbps=40)
        view = SystemView(cluster)
        matcher = Matcher(cluster)
        placed = [place(view, matcher, DB_RSL, "QS", f"db{i}")
                  for i in (1, 2)]
        predictions = [
            DefaultModel().predict(demands, assignment, view,
                                   app_key=f"db{i + 1}")
            for i, (demands, assignment) in enumerate(placed)]

        finish = {}

        def run_config(tag, demands, assignment):
            server_host = assignment.hostname_of("server")
            client_host = assignment.hostname_of("client")
            server_work = cluster.node(server_host).compute(9.0)
            client_work = cluster.node(client_host).compute(1.0)
            yield kernel.all_of([server_work, client_work])
            link = cluster.link_between(client_host, server_host)
            yield link.transfer(2.0)
            finish[tag] = kernel.now

        for index, (demands, assignment) in enumerate(placed):
            kernel.spawn(run_config(index, demands, assignment))
        kernel.run()
        for index in range(2):
            assert finish[index] == pytest.approx(predictions[index],
                                                  rel=0.05)


class TestExplicitSpecModel:
    def test_uses_declared_parameter(self, figure2b_rsl, small_cluster):
        option = build_bundle(figure2b_rsl).option_named("run")
        model = ExplicitSpecModel(option.performance)
        view = SystemView(small_cluster)
        matcher = Matcher(small_cluster)
        demands = instantiate_option(option, {"workerNodes": 4})
        assignment = matcher.match(demands)
        view.place("bag", demands, assignment)
        assert model.predict(demands, assignment, view,
                             app_key="bag") == pytest.approx(708.0)

    def test_interpolates_between_points(self, figure2b_rsl, small_cluster):
        option = build_bundle(figure2b_rsl).option_named("run")
        model = ExplicitSpecModel(option.performance)
        view = SystemView(small_cluster)
        demands = instantiate_option(option, {"workerNodes": 2})
        assignment = Matcher(small_cluster).match(demands)
        view.place("bag", demands, assignment)
        assert model.predict(demands, assignment, view) == \
            pytest.approx(1212.0)

    def test_contention_stretches_curve(self, figure2b_rsl, small_cluster):
        option = build_bundle(figure2b_rsl).option_named("run")
        model = ExplicitSpecModel(option.performance)
        view = SystemView(small_cluster)
        matcher = Matcher(small_cluster)
        demands = instantiate_option(option, {"workerNodes": 4})
        assignment = matcher.match(demands)
        view.place("bag1", demands, assignment)
        view.place("bag2", demands, assignment)  # same four nodes
        assert model.predict(demands, assignment, view) == \
            pytest.approx(2 * 708.0)

    def test_missing_parameter_raises(self, small_cluster):
        rsl = """harmonyBundle A b {
            {o {node n {seconds 1} {memory 4}}
               {performance ghostVar {1 10} {2 5}}}}"""
        option = build_bundle(rsl).option_named("o")
        model = ExplicitSpecModel(option.performance)
        demands = instantiate_option(option)
        assignment = Matcher(small_cluster).match(demands)
        with pytest.raises(PredictionError):
            model.predict(demands, assignment, SystemView(small_cluster))


class TestCallableModel:
    def test_wraps_function(self, small_cluster):
        model = CallableModel(lambda demands, assignment, view: 123.0)
        rsl = "harmonyBundle A b {{o {node n {seconds 1} {memory 4}}}}"
        option = build_bundle(rsl).option_named("o")
        demands = instantiate_option(option)
        assignment = Matcher(small_cluster).match(demands)
        assert model.predict(demands, assignment,
                             SystemView(small_cluster)) == 123.0

    def test_negative_result_rejected(self, small_cluster):
        model = CallableModel(lambda *args: -1.0)
        rsl = "harmonyBundle A b {{o {node n {seconds 1} {memory 4}}}}"
        option = build_bundle(rsl).option_named("o")
        demands = instantiate_option(option)
        assignment = Matcher(small_cluster).match(demands)
        with pytest.raises(PredictionError):
            model.predict(demands, assignment, SystemView(small_cluster))


class TestModelDispatch:
    def test_spec_with_points_gets_explicit_model(self, figure2b_rsl):
        option = build_bundle(figure2b_rsl).option_named("run")
        assert isinstance(model_for_spec(option.performance),
                          ExplicitSpecModel)

    def test_no_spec_gets_default(self):
        assert isinstance(model_for_spec(None), DefaultModel)

    def test_explicit_default_instance_respected(self):
        sentinel = DefaultModel()
        assert model_for_spec(None, default=sentinel) is sentinel


# -- the compiled model against the per-hop formula -----------------------

SHAPES = ("line", "star", "mesh")
SPEEDS = (0.5, 1.0, 1.5, 3.3)
BANDWIDTHS = (3.0, 7.7, 40.0)
LATENCIES = (0.0, 0.001, 0.1, 0.3)
SECONDS = (None, 0.0, -1.0, 0.5, 1.0, 2.5, 9.0)
MEGABYTES = (0.0, 0.1, 0.3, 2.0, 7.3, 51.0)
LOADS = (0.0, 0.5, 1.0, 2.5)


def shaped_cluster(shape, speeds, hops, isolated):
    """``line``, ``star`` or full ``mesh`` over one host per speed (each
    link drawing its bandwidth and latency from ``hops`` in turn), plus
    ``isolated`` hosts joined to nothing."""
    hosts = [f"h{i}" for i in range(len(speeds))]
    cluster = Cluster()
    for host, speed in zip(hosts, speeds):
        cluster.add_node(host, speed=speed)
    if shape == "line":
        pairs = list(zip(hosts, hosts[1:]))
    elif shape == "star":
        pairs = [(hosts[0], host) for host in hosts[1:]]
    else:
        pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
    for index, (host_a, host_b) in enumerate(pairs):
        bandwidth, latency = hops[index % len(hops)]
        cluster.add_link(host_a, host_b, bandwidth, latency)
    for index in range(isolated):
        cluster.add_node(f"lone{index}")
    return cluster


@st.composite
def configurations(draw, hosts, unplaced):
    """Demands over up to three local names and an assignment of them,
    leaving a name unplaced only when ``unplaced``."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    nodes = tuple(NodeDemand(name, seconds=draw(st.sampled_from(SECONDS)))
                  for name in names)
    # Up to five transfers between distinct resources.
    links = tuple(LinkDemand(*draw(st.permutations(names))[:2],
                             draw(st.sampled_from(MEGABYTES)))
                  for _ in range(draw(st.integers(0, 5)))
                  if len(names) > 1)
    communication = draw(st.sampled_from((None, 0.0, 1.5, 8.0)))
    placed = names if not unplaced or draw(st.booleans()) else \
        draw(st.lists(st.sampled_from(names), unique=True))
    assignment = Assignment({name: draw(st.sampled_from(hosts))
                             for name in placed})
    return ConcreteDemands("o", nodes=nodes, links=links,
                           communication_mb=communication), assignment


@st.composite
def loaded_views(draw, faults=False):
    """A controller whose view holds up to four placed apps on a drawn
    topology under drawn external loads, and one configuration more."""
    shape = draw(st.sampled_from(SHAPES))
    speeds = draw(st.lists(st.sampled_from(SPEEDS), min_size=3, max_size=6))
    hops = draw(st.lists(st.tuples(st.sampled_from(BANDWIDTHS),
                                   st.sampled_from(LATENCIES)),
                         min_size=1, max_size=4))
    cluster = shaped_cluster(shape, speeds, hops,
                             draw(st.integers(1, 2)) if faults else 0)
    hosts = cluster.hostnames()
    controller = AdaptationController(cluster)
    view = controller.view
    for index in range(draw(st.integers(1, 4))):
        instance = controller.register_app(f"App{index}")
        controller.add_bundle(instance, build_bundle(
            "harmonyBundle App b {{o {node n {seconds 1}}}}"))
        demands, assignment = draw(configurations(hosts, faults))
        view.place(instance.key, demands, assignment)
    for host in hosts:
        view.set_external_cpu_load(host, draw(st.sampled_from(LOADS)))
    for link in cluster.links():
        view.set_external_link_load(link.host_a, link.host_b,
                                    draw(st.sampled_from(LOADS)))
    return controller, draw(configurations(hosts, faults))


def outcome(predict, *args, **kwargs):
    """A prediction's value, or the type and message of its error."""
    try:
        return predict(*args, **kwargs)
    except (AllocationError, SimulationError) as error:
        return type(error), str(error)


class TestCompiledDefaultModel:
    """The default model reads a compiled footprint; it must return
    exactly the float the per-hop formula does, and raise what it
    raises."""

    @settings(max_examples=300, deadline=None)
    @given(loaded_views())
    def test_placed_apps_through_predict_app(self, drawn):
        controller, _ = drawn
        view = controller.view
        for placed in view.configurations():
            assert controller.predict_app(view, placed) == per_hop_predict(
                placed.demands, placed.assignment, view,
                app_key=placed.app_key)

    @settings(max_examples=300, deadline=None)
    @given(loaded_views())
    def test_configurations_not_in_the_view(self, drawn):
        controller, (demands, assignment) = drawn
        view = controller.view
        for app_key in [None, "absent", *(placed.app_key for placed
                                          in view.configurations())]:
            assert DefaultModel().predict(
                demands, assignment, view, app_key=app_key) == \
                per_hop_predict(demands, assignment, view, app_key=app_key)

    @settings(max_examples=300, deadline=None)
    @given(loaded_views(faults=True))
    def test_unplaced_and_disconnected_raise_as_the_formula_does(self,
                                                                 drawn):
        controller, (demands, assignment) = drawn
        view = controller.view
        model = DefaultModel()
        for placed in view.configurations():
            assert outcome(model.predict, placed.demands, placed.assignment,
                           view, app_key=placed.app_key) == \
                outcome(per_hop_predict, placed.demands, placed.assignment,
                        view, app_key=placed.app_key)
        assert outcome(model.predict, demands, assignment, view) == \
            outcome(per_hop_predict, demands, assignment, view)

    def test_network_phase_sums_in_demand_order(self):
        """Float addition is not associative: these transfers, then the
        ``communication`` pair, take 3.7999999999999994 seconds summed
        in demand order and 3.8 summed from either end."""
        cluster = Cluster.full_mesh(["a", "b"], bandwidth_mbps=3.0,
                                    latency_seconds=0.3)
        demands = ConcreteDemands(
            "o", links=tuple(LinkDemand("x", "y", megabytes)
                             for megabytes in (0.1, 0.1, 7.3)),
            communication_mb=0.3)
        assignment = Assignment({"x": "a", "y": "b"})
        view = SystemView(cluster)
        view.place("app", demands, assignment)
        assert DefaultModel().predict(
            demands, assignment, view, app_key="app") == \
            per_hop_predict(demands, assignment, view,
                            app_key="app") == 3.7999999999999994

    def test_unplaced_demand_is_an_allocation_error(self, small_cluster):
        demands = ConcreteDemands("o", nodes=(NodeDemand("a", seconds=1.0),
                                              NodeDemand("b", seconds=2.0)))
        assignment = Assignment({"a": "n0"})
        view = SystemView(small_cluster)
        view.place("x", demands, assignment)
        with pytest.raises(AllocationError, match="'b'"):
            DefaultModel().predict(demands, assignment, view, app_key="x")

    def test_disconnected_endpoints_are_a_simulation_error(self):
        cluster = Cluster.star("hub", ["a"])
        cluster.add_node("lone")
        view = SystemView(cluster)
        for demands in (
                ConcreteDemands("o", links=(LinkDemand("x", "y", 1.0),)),
                ConcreteDemands("o", communication_mb=1.0)):
            assignment = Assignment({"x": "a", "y": "lone"})
            view.place("x", demands, assignment)
            assert not view.footprint_of("x").flows
            with pytest.raises(SimulationError, match="no path"):
                DefaultModel().predict(demands, assignment, view,
                                       app_key="x")

"""Adaptation-controller behaviour: lifecycle, decisions, reevaluation."""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from repro.controller.friction import FrictionPolicy
from repro.errors import AllocationError
from tests.pods import POD_RSL, build_pod_cluster

#: POD_RSL with an elastic-memory demand a link expression reads, so the
#: optimizer probes (and caches) memory grants for it.
ELASTIC_POD_RSL = """
harmonyBundle Pod{pod}App{index} size {{
    {{small {{node n {{hostname p{pod}n*}} {{seconds 60}} {{memory 24}}}}}}
    {{large {{node a {{hostname p{pod}n*}} {{seconds 35}} {{memory >=17}}}}
            {{node b {{hostname p{pod}n*}} {{seconds 35}} {{memory 24}}}}
            {{link a b {{44 + 17 - (a.memory > 24 ? 24 : a.memory)}}}}}}}}
"""


def db_rsl(client_host="*"):
    return f"""
harmonyBundle DBclient where {{
    {{QS {{node server {{hostname server0}} {{seconds 9}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{seconds 1}} {{memory 2}}}}
        {{link client server 2}}}}
    {{DS {{node server {{hostname server0}} {{seconds 1}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{memory >=32}}
                     {{seconds 18}}}}
        {{link client server 51}}}}}}
"""


@pytest.fixture
def controller(star_cluster):
    return AdaptationController(star_cluster)


class TestLifecycle:
    def test_register_assigns_instance(self, controller):
        instance = controller.register_app("DBclient")
        assert instance.key == "DBclient.1"
        assert controller.metrics.latest(
            "controller.registered_apps") == 1.0

    def test_setup_bundle_configures_immediately(self, controller):
        instance = controller.register_app("DBclient")
        state = controller.setup_bundle(instance, db_rsl("c1"))
        assert state.chosen is not None
        assert state.chosen.option_name == "QS"

    def test_setup_accepts_prebuilt_bundle(self, controller):
        from repro.rsl import build_bundle
        instance = controller.register_app("DBclient")
        state = controller.setup_bundle(instance,
                                        build_bundle(db_rsl("c1")))
        assert state.chosen is not None

    def test_allocation_reserved_on_choice(self, controller, star_cluster):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        assert star_cluster.node("server0").memory.available_mb == \
            pytest.approx(128 - 20)

    def test_end_app_releases_everything(self, controller, star_cluster):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        controller.end_app(instance)
        assert star_cluster.node("server0").memory.available_mb == \
            pytest.approx(128)
        assert len(controller.registry) == 0

    def test_model_cache_is_bounded_under_churn(self):
        controller = AdaptationController(build_pod_cluster(1, 8))
        live = []
        for index in range(8 + 200):
            if len(live) == 8:
                controller.end_app(live.pop(0))
            instance = controller.register_app(f"Pod0App{index}")
            controller.setup_bundle(instance,
                                    POD_RSL.format(pod=0, index=index))
            live.append(instance)
        options = 2  # POD_RSL: small, large
        assert 0 < len(controller._model_cache) <= len(live) * options

    def test_metric_series_are_bounded_under_churn(self):
        """``controller.<key>.<bundle>.option`` is one series (and one
        export name) per admission: it goes with the application."""
        controller = AdaptationController(build_pod_cluster(1, 8))
        live, full = [], None
        for index in range(8 + 150):
            if len(live) == 8:
                full = full or len(controller.metrics.names())
                ended = live.pop(0)
                controller.end_app(ended)
                assert controller.metrics.names(
                    f"controller.{ended.key}") == []
            instance = controller.register_app(f"Pod0App{index}")
            controller.setup_bundle(instance,
                                    POD_RSL.format(pod=0, index=index))
            live.append(instance)
        assert len(controller.metrics.names()) == full
        assert [len(controller.metrics.names(f"controller.{app.key}"))
                for app in live] == [1] * 8

    def test_configuration_cache_is_bounded_under_churn(self):
        """Spaces and instantiations are keyed by object id and pin the
        object: a released bundle's must go with it."""
        controller = AdaptationController(build_pod_cluster(1, 8))
        cache = controller._config_cache
        live = []
        for index in range(8 + 100):
            if len(live) == 8:
                controller.end_app(live.pop(0))
            instance = controller.register_app(f"Pod0App{index}")
            # Odd apps carry an elastic demand: their spaces hold grants.
            rsl = ELASTIC_POD_RSL if index % 2 else POD_RSL
            controller.setup_bundle(instance,
                                    rsl.format(pod=0, index=index))
            live.append(instance)
        options = 2  # small, large
        assert 0 < len(cache._spaces) <= len(live)
        assert 0 < len(cache.instantiations._results) <= len(live) * options
        assert any(entry.grants for _, space in cache._spaces.values()
                   for entry in space)
        pinned = {id(state.bundle) for instance in live
                  for state in instance.bundles.values()}
        assert set(cache._spaces) == pinned

    def test_configuration_space_is_built_once_per_bundle(self):
        """A bundle's space is keyed on the bundle alone: every later
        enumeration reuses it, a peek reads its size without building
        it, and releasing the app drops it."""
        controller = AdaptationController(build_pod_cluster(1, 8))
        cache = controller._config_cache
        instance = controller.register_app("Pod0App1")
        controller.setup_bundle(instance,
                                ELASTIC_POD_RSL.format(pod=0, index=1))
        bundle = instance.bundle_state("size").bundle
        space = cache.space_for(bundle)
        misses = cache.space_misses
        controller.reevaluate()
        assert cache.space_for(bundle) is space
        assert cache.space_misses == misses
        assert cache.peek_space_len(bundle) == len(space)
        assert any(entry.grants for entry in space)
        controller.end_app(instance)
        assert cache.peek_space_len(bundle) == 0
        assert cache.space_misses == misses

    def test_partition_index_is_bounded_under_churn(self):
        """The index's per-bundle tables — records, the reach memo — go
        with the application that ends, settled member sets with any
        member that ends, one record per component; the engine's write
        stamps are one per host or link at most."""
        controller = AdaptationController(build_pod_cluster(2, 4))
        index = controller.partition_index
        live = []
        for number in range(8 + 100):
            if len(live) == 8:
                controller.end_app(live.pop(0))
            instance = controller.register_app(f"Pod{number % 2}App{number}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=number % 2, index=number))
            live.append(instance)
        keys = {(instance.key, "size") for instance in live}
        assert set(index._reach) <= keys
        bundles = {key for key in index._no_ops if key in keys}
        settled = set(index._no_ops) - bundles
        assert bundles and settled
        assert all(members <= keys for members in settled)
        components = index.components(
            ((instance.key, "size"), instance.bundle_state("size"))
            for instance in live)
        assert len(components) == 2
        assert len(settled) <= len(components)
        cluster = controller.cluster
        assert 0 < len(controller._engine._stamps) <= \
            len(list(cluster.hostnames())) + len(list(cluster.links()))
        assert controller.stats.pruned_pairs > 0    # watermarks in use

    def test_infeasible_bundle_raises(self, controller):
        instance = controller.register_app("Big")
        with pytest.raises(AllocationError):
            controller.setup_bundle(instance, """
                harmonyBundle Big b {
                    {o {node n {seconds 1} {memory 100000}}}}""")

    def test_namespace_updated_on_choice(self, controller):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        assert controller.namespace.get(
            f"{instance.key}.where.option") == "QS"


class TestDecisions:
    def test_decision_trace_records_initial_choice(self, controller):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        assert len(controller.trace_log) == 1
        trace = controller.trace_log.traces()[0]
        assert trace.old_configuration is None
        assert trace.new_configuration == "QS"
        assert trace.trigger == "initial"

    def test_reconfiguration_listener_fired_on_change(self, controller):
        events = []
        controller.add_listener(events.append)
        hosts = ["c1", "c2", "c3"]
        for host in hosts:
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        # At three clients the model switches someone to DS.
        assert any(event.option_name == "DS" for event in events)

    def test_listener_unsubscribe(self, controller):
        events = []
        cancel = controller.add_listener(events.append)
        cancel()
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        assert events == []

    def test_option_metric_reported(self, controller):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        assert controller.metrics.latest(
            f"controller.{instance.key}.where.option") == 0.0  # QS index

    def test_crossover_with_three_clients(self, controller):
        """The headline behaviour: three clients cannot all stay QS."""
        instances = []
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
            instances.append(instance)
        options = [instance.bundles["where"].chosen.option_name
                   for instance in instances]
        assert "DS" in options
        predictions = controller.predict_all(controller.view)
        assert max(predictions.values()) < 27.0  # all-QS would hit 27+


class TestGranularityAndFriction:
    def test_granularity_blocks_rapid_switching(self, star_cluster):
        controller = AdaptationController(star_cluster)
        rsl = """
harmonyBundle App b {
    {fast {node n {hostname c1} {seconds 1} {memory 4}}
          {granularity 1000}}
    {slow {node n {hostname c1} {seconds 5} {memory 4}}
          {granularity 1000}}}
"""
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, rsl)
        assert state.chosen.option_name == "fast"
        state.last_switch_time = controller.now
        # Granularity forbids another switch right away, even if the
        # optimizer wanted one.
        assert not state.granularity_allows_switch(controller.now)

    def test_friction_blocks_marginal_switch(self, star_cluster):
        controller = AdaptationController(
            star_cluster,
            friction_policy=FrictionPolicy(amortization_seconds=1.0))
        rsl = """
harmonyBundle App b {
    {slow {node n {hostname c1} {seconds 10} {memory 4}}}
    {fast {node n {hostname c1} {seconds 9.5} {memory 4}}
          {friction 10000}}}
"""
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, rsl)
        # Initial configuration ignores friction (nothing is running yet),
        # so "fast" wins; but starting from "slow" the huge friction must
        # block the marginal move.
        if state.chosen.option_name == "fast":
            return  # initial pick already optimal: nothing to gate
        controller.reevaluate()
        assert state.chosen.option_name == "slow"

    def test_friction_cost_zero_for_staying(self, star_cluster):
        controller = AdaptationController(star_cluster)
        rsl = """
harmonyBundle App b {
    {o {node n {hostname c1} {seconds 1} {memory 4}} {friction 30}}}
"""
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, rsl)
        assert controller.friction_cost(state, "o") == 0.0


class TestPeriodicReevaluation:
    def test_periodic_process_runs(self, star_cluster):
        controller = AdaptationController(
            star_cluster, reevaluation_period_seconds=10.0)
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        controller.start_periodic_reevaluation()
        star_cluster.run(until=35.0)
        controller.stop_periodic_reevaluation()
        series = controller.metrics.series("controller.reevaluation_changes")
        assert len(series) == 3  # t = 10, 20, 30

    def test_double_start_rejected(self, star_cluster):
        from repro.errors import ControllerError
        controller = AdaptationController(star_cluster)
        controller.start_periodic_reevaluation()
        with pytest.raises(ControllerError):
            controller.start_periodic_reevaluation()
        controller.stop_periodic_reevaluation()

    def test_reevaluation_adapts_to_departure(self, star_cluster):
        """When two of three clients leave, the survivor returns to QS."""
        controller = AdaptationController(star_cluster)
        instances = []
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
            instances.append(instance)
        survivor = instances[0]
        for instance in instances[1:]:
            controller.end_app(instance)
        assert survivor.bundles["where"].chosen.option_name == "QS"


class TestDescribe:
    def test_describe_system_lines(self, controller):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        lines = controller.describe_system()
        assert lines == ["DBclient.1 where -> QS"]

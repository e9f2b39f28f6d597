"""Application registry and namespace publication."""

import pytest

from repro.allocation import Matcher, allocate, instantiate_option
from repro.cluster import Cluster
from repro.controller.registry import ApplicationRegistry
from repro.errors import ControllerError
from repro.namespace import Namespace
from repro.prediction import DefaultModel, ExplicitSpecModel
from repro.rsl import build_bundle


@pytest.fixture
def registry():
    return ApplicationRegistry(namespace=Namespace())


class TestRegistration:
    def test_system_chosen_instance_ids_are_unique(self, registry):
        first = registry.register("DBclient", now=0.0)
        second = registry.register("DBclient", now=1.0)
        assert first.instance_id != second.instance_id
        assert first.key == "DBclient.1"
        assert second.key == "DBclient.2"

    def test_instances_in_registration_order(self, registry):
        keys = [registry.register(name, 0.0).key
                for name in ("A", "B", "C")]
        assert [i.key for i in registry.instances()] == keys

    def test_unknown_instance_raises(self, registry):
        with pytest.raises(ControllerError):
            registry.instance("ghost.1")

    def test_duplicate_bundle_rejected(self, registry, figure3_rsl):
        instance = registry.register("DBclient", 0.0)
        bundle = build_bundle(figure3_rsl)
        registry.add_bundle(instance, bundle)
        with pytest.raises(ControllerError):
            registry.add_bundle(instance, bundle)

    def test_remove_releases_allocations(self, registry, figure3_rsl):
        cluster = Cluster.star("harmony.cs.umd.edu", ["c1"], memory_mb=128)
        for node in cluster.nodes():
            node.os = "linux"
        instance = registry.register("DBclient", 0.0)
        bundle = build_bundle(figure3_rsl)
        state = registry.add_bundle(instance, bundle)
        demands = instantiate_option(bundle.option_named("QS"))
        assignment = Matcher(cluster).match(demands)
        allocation = allocate(cluster, demands, assignment, holder="h")
        from repro.controller.registry import ChosenConfiguration
        state.chosen = ChosenConfiguration(
            option_name="QS", variable_assignment={}, demands=demands,
            assignment=assignment, allocation=allocation,
            predicted_seconds=1.0, chosen_at=0.0)
        registry.remove(instance)
        assert all(node.memory.held_by("h") == 0.0
                   for node in cluster.nodes())
        assert len(registry) == 0


class TestModelResolution:
    """A prediction's model: the one registered for the option's bundle,
    else the option's RSL spec, else the controller's default model."""

    @pytest.fixture
    def controller(self, star_cluster):
        from repro.controller import AdaptationController
        return AdaptationController(star_cluster)

    def test_rsl_performance_spec_wins_over_default(self, controller,
                                                    figure2b_rsl):
        instance = controller.register_app("Bag")
        controller.add_bundle(instance, build_bundle(figure2b_rsl))
        model = controller._model_for(instance, "run")
        assert isinstance(model, ExplicitSpecModel)

    def test_registered_override_wins_over_spec(self, controller,
                                                figure2b_rsl):
        instance = controller.register_app("Bag")
        controller.add_bundle(instance, build_bundle(figure2b_rsl))
        sentinel = DefaultModel()
        controller.attach_model(instance, "parallelism", sentinel)
        assert controller._model_for(instance, "run") is sentinel

    def test_another_bundles_model_leaves_the_cached_spec_model(
            self, controller, figure2b_rsl, figure3_rsl):
        """A model registered for one bundle neither applies to another
        bundle nor makes that bundle's spec model be built again."""
        instance = controller.register_app("Both")
        controller.add_bundle(instance, build_bundle(figure2b_rsl))
        controller.add_bundle(instance, build_bundle(figure3_rsl))
        bundle_model = DefaultModel()
        controller.attach_model(instance, "where", bundle_model)
        assert controller._model_for(instance, "DS") is bundle_model
        spec_model = controller._model_for(instance, "run")
        assert isinstance(spec_model, ExplicitSpecModel)
        assert controller._model_for(instance, "run") is spec_model

    def test_plain_option_falls_back_to_default(self, controller,
                                                figure3_rsl):
        instance = controller.register_app("DBclient")
        controller.add_bundle(instance, build_bundle(figure3_rsl))
        assert controller._model_for(instance, "QS") \
            is controller.default_model


class TestNamespacePublication:
    def test_publish_choice_produces_paper_paths(self, registry,
                                                 figure3_rsl):
        cluster = Cluster.star("harmony.cs.umd.edu", ["c1"], memory_mb=128)
        for node in cluster.nodes():
            node.os = "linux"
        instance = registry.register("DBclient", 0.0)
        bundle = build_bundle(figure3_rsl)
        state = registry.add_bundle(instance, bundle)
        demands = instantiate_option(bundle.option_named("DS"))
        assignment = Matcher(cluster).match(demands)
        allocation = allocate(cluster, demands, assignment, holder="h")
        from repro.controller.registry import ChosenConfiguration
        state.chosen = ChosenConfiguration(
            option_name="DS", variable_assignment={}, demands=demands,
            assignment=assignment, allocation=allocation,
            predicted_seconds=1.0, chosen_at=0.0)
        registry.publish_choice(instance, "where")

        ns = registry.namespace
        key = instance.key
        assert ns.get(f"{key}.where.option") == "DS"
        # The Section 3.2 example path shape:
        assert ns.get(f"{key}.where.DS.client.memory") == 32.0
        assert ns.get(f"{key}.where.DS.client.hostname") == "c1"
        assert ns.get(f"{key}.where.DS.server.hostname") == \
            "harmony.cs.umd.edu"
        assert ns.get(f"{key}.where.DS.link0.megabytes") == 51.0

    def test_republish_clears_previous_option_subtree(self, registry,
                                                      figure3_rsl):
        cluster = Cluster.star("harmony.cs.umd.edu", ["c1"], memory_mb=128)
        for node in cluster.nodes():
            node.os = "linux"
        instance = registry.register("DBclient", 0.0)
        bundle = build_bundle(figure3_rsl)
        state = registry.add_bundle(instance, bundle)
        from repro.controller.registry import ChosenConfiguration
        for option_name in ("QS", "DS"):
            demands = instantiate_option(bundle.option_named(option_name))
            assignment = Matcher(cluster).match(demands)
            allocation = allocate(cluster, demands, assignment,
                                  holder=f"h-{option_name}")
            if state.chosen is not None:
                state.chosen.allocation.release()
            state.chosen = ChosenConfiguration(
                option_name=option_name, variable_assignment={},
                demands=demands, assignment=assignment,
                allocation=allocation, predicted_seconds=1.0, chosen_at=0.0)
            registry.publish_choice(instance, "where")
        ns = registry.namespace
        assert ns.get(f"{instance.key}.where.option") == "DS"
        assert not ns.exists(f"{instance.key}.where.QS")

    def test_publish_writes_what_delete_then_set_wrote(self, registry,
                                                       figure3_rsl,
                                                       figure2b_rsl):
        """One ``replace`` walk leaves the leaves of the old
        ``exists``/``delete``/``set`` sequence: variables, replica names,
        memory grants, link leaves, and a republish onto another
        option."""
        from repro.controller.registry import ChosenConfiguration
        from repro.namespace import join_path
        cluster = Cluster.star("harmony.cs.umd.edu",
                               ["c1", "c2", "c3", "c4"], memory_mb=256)
        for node in cluster.nodes():
            node.os = "linux"

        def delete_then_set(ns, instance, bundle_name, grants):
            chosen = instance.bundle_state(bundle_name).chosen
            root = join_path(instance.key, bundle_name)
            if ns.exists(root):
                ns.delete(root)
            ns.set(join_path(root, "option"), chosen.option_name)
            for name, value in chosen.variable_assignment.items():
                ns.set(join_path(root, "variables", name), value)
            option_root = join_path(root, chosen.option_name)
            for demand in chosen.demands.nodes:
                node_root = join_path(option_root, demand.local_name)
                ns.set(join_path(node_root, "hostname"),
                       chosen.assignment.hostname_of(demand.local_name))
                ns.set(join_path(node_root, "memory"),
                       grants.get(f"{demand.local_name}.memory",
                                  demand.memory_min_mb))
                if demand.seconds is not None:
                    ns.set(join_path(node_root, "seconds"), demand.seconds)
            for index, link in enumerate(chosen.demands.links):
                link_root = join_path(option_root, f"link{index}")
                ns.set(join_path(link_root, "endpoints"),
                       f"{link.endpoint_a}-{link.endpoint_b}")
                ns.set(join_path(link_root, "megabytes"), link.total_mb)

        oracle = ApplicationRegistry(namespace=Namespace())
        steps = [("Bag", figure2b_rsl, "parallelism", "run",
                  {"workerNodes": 4.0}, {}),
                 ("DBclient", figure3_rsl, "where", "DS", {},
                  {"client.memory": 40.0}),
                 ("DBclient", figure3_rsl, "where", "QS", {}, {})]
        instances = {}
        for app, rsl, bundle_name, option_name, variables, grants in steps:
            for side in (registry, oracle):
                key = (id(side), app)
                if key not in instances:
                    instance = instances[key] = side.register(app, 0.0)
                    side.add_bundle(instance, build_bundle(rsl))
                instance = instances[key]
                state = instance.bundle_state(bundle_name)
                demands = instantiate_option(
                    state.bundle.option_named(option_name), variables,
                    grants)
                state.chosen = ChosenConfiguration(
                    option_name=option_name, variable_assignment=variables,
                    demands=demands, assignment=Matcher(cluster).match(
                        demands), allocation=None, predicted_seconds=1.0,
                    chosen_at=0.0)
            registry.publish_choice(instances[id(registry), app],
                                    bundle_name, grants)
            delete_then_set(oracle.namespace, instances[id(oracle), app],
                            bundle_name, grants)
            assert dict(registry.namespace.walk()) == \
                dict(oracle.namespace.walk())
        ns = registry.namespace
        bag = instances[id(registry), "Bag"].key
        assert ns.get(f"{bag}.parallelism.variables.workerNodes") == 4.0
        assert ns.exists(f"{bag}.parallelism.run.worker[3]")
        db = instances[id(registry), "DBclient"].key
        assert ns.get(f"{db}.where.option") == "QS"
        assert not ns.exists(f"{db}.where.DS")
        assert ns.get(f"{db}.where.QS.link0.megabytes") == 2.0

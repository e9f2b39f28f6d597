"""The client-count rule policy (the paper's Figure 7 controller)."""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy


def db_rsl(client_host):
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


def make_controller(reaction_seconds=0.0):
    cluster = Cluster.star("server0", ["c1", "c2", "c3", "c4"],
                           memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS",
        reaction_seconds=reaction_seconds)
    return cluster, AdaptationController(cluster, policy=policy)


class TestClientCountRule:
    def test_below_threshold_everyone_qs(self):
        _cluster, controller = make_controller()
        for host in ("c1", "c2"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        options = {i.bundles["where"].chosen.option_name
                   for i in controller.registry.instances()}
        assert options == {"QS"}

    def test_at_threshold_everyone_switches(self):
        _cluster, controller = make_controller()
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        options = {i.bundles["where"].chosen.option_name
                   for i in controller.registry.instances()}
        assert options == {"DS"}

    def test_departure_switches_back(self):
        _cluster, controller = make_controller()
        instances = []
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
            instances.append(instance)
        controller.end_app(instances[-1])
        options = {i.bundles["where"].chosen.option_name
                   for i in controller.registry.instances()}
        assert options == {"QS"}

    def test_other_apps_untouched(self):
        _cluster, controller = make_controller()
        other = controller.register_app("Other")
        controller.setup_bundle(other, """
harmonyBundle Other b {
    {only {node n {hostname c4} {seconds 1} {memory 4}}}}""")
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        assert other.bundles["b"].chosen.option_name == "only"

    def test_reaction_delay_defers_the_switch(self):
        cluster, controller = make_controller(reaction_seconds=60.0)
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        options = {i.bundles["where"].chosen.option_name
                   for i in controller.registry.instances()}
        assert options == {"QS"}  # condition true but not yet held 60 s

        def advance():
            yield cluster.kernel.timeout(61.0)
        cluster.kernel.spawn(advance())
        cluster.run()
        assert controller.reevaluate() >= 1
        options = {i.bundles["where"].chosen.option_name
                   for i in controller.registry.instances()}
        assert options == {"DS"}

    def test_decision_reason_names_the_rule(self):
        _cluster, controller = make_controller()
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        rule_decisions = [t for t in controller.trace_log.traces()
                          if t.trigger.startswith("rule:")]
        assert len(rule_decisions) == 2  # the two running clients switched
        assert "#active(DBclient) >= 3" in rule_decisions[0].trigger

    def test_switch_is_pushed_to_listeners(self):
        _cluster, controller = make_controller()
        events = []
        controller.add_listener(events.append)
        for host in ("c1", "c2", "c3"):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, db_rsl(host))
        ds_events = [e for e in events if e.option_name == "DS"]
        assert len(ds_events) == 3  # initial DS for #3 plus two switches

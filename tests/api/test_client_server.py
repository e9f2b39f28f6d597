"""Client library <-> Harmony server, over in-process and TCP transports."""

import pytest

from repro.api import (
    HarmonyClient,
    HarmonyServer,
    VariableType,
    connected_pair,
    harmony_add_variable,
    harmony_bundle_setup,
    harmony_end,
    harmony_startup,
    harmony_wait_for_update,
    set_default_client,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import HarmonyError, ProtocolError


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


@pytest.fixture
def setup():
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    server = HarmonyServer(controller)
    return cluster, controller, server


def connect(server):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    return HarmonyClient(client_end)


class TestFigure5Api:
    def test_startup_assigns_key(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        key = client.startup("DBclient")
        assert key == "DBclient.1"
        assert client.instance_id == 1

    def test_double_startup_rejected(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        with pytest.raises(ProtocolError):
            client.startup("DBclient")

    def test_calls_before_startup_rejected(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        with pytest.raises(ProtocolError):
            client.bundle_setup("x")

    def test_bundle_setup_returns_configuration(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        config = client.bundle_setup(db_rsl("c1"))
        assert config["bundle_name"] == "where"
        assert config["option"] == "QS"
        assert config["placements"]["server"] == "server0"
        assert config["placements"]["client"] == "c1"

    def test_bad_rsl_surfaces_as_error(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        with pytest.raises(HarmonyError, match="server error"):
            client.bundle_setup("this is not a bundle")

    def test_add_variable_syncs_current_value(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        client.bundle_setup(db_rsl("c1"))
        option = client.add_variable("where.option", "??",
                                     VariableType.STRING)
        assert option.value == "QS"
        assert not option.changed  # initial sync is not a change

    def test_add_unknown_variable_echoes_default(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        variable = client.add_variable("my.knob", 7.0)
        assert variable.value == 7.0

    def test_end_releases_resources(self, setup):
        cluster, controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        client.bundle_setup(db_rsl("c1"))
        client.end()
        assert len(controller.registry) == 0
        assert cluster.node("server0").memory.available_mb == \
            pytest.approx(128)

    def test_end_twice_is_harmless(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        client.startup("DBclient")
        client.end()
        client.end()

    def test_report_metric_lands_in_interface(self, setup):
        _cluster, controller, server = setup
        client = connect(server)
        key = client.startup("DBclient")
        client.report_metric("response_time", 9.5)
        assert controller.metrics.latest(
            f"app.{key}.response_time") == 9.5


class TestReconfigurationPush:
    def test_third_client_flips_everyone(self, setup):
        _cluster, _controller, server = setup
        clients = []
        for host in ("c1", "c2", "c3"):
            client = connect(server)
            client.startup("DBclient")
            client.bundle_setup(db_rsl(host))
            variable = client.add_variable("where.option", "QS",
                                           VariableType.STRING)
            clients.append((client, variable))
        for client, variable in clients:
            assert variable.value == "DS"
        # First two clients were switched -> changed flag set; the third
        # started directly in DS.
        assert clients[0][1].changed
        assert clients[1][1].changed
        assert not clients[2][1].changed

    def test_poll_update_returns_batch_once(self, setup):
        _cluster, _controller, server = setup
        first = connect(server)
        first.startup("DBclient")
        first.bundle_setup(db_rsl("c1"))
        first.add_variable("where.option", "QS", VariableType.STRING)
        for host in ("c2", "c3"):
            other = connect(server)
            other.startup("DBclient")
            other.bundle_setup(db_rsl(host))
        batch = first.poll_update()
        assert batch is not None
        assert batch["where.option"] == "DS"
        assert first.poll_update() is None

    def test_memory_grant_included_in_push(self, setup):
        _cluster, _controller, server = setup
        first = connect(server)
        first.startup("DBclient")
        first.bundle_setup(db_rsl("c1"))
        memory = first.add_variable("where.client.memory", 0.0)
        for host in ("c2", "c3"):
            other = connect(server)
            other.startup("DBclient")
            other.bundle_setup(db_rsl(host))
        assert memory.value == 32.0  # the DS minimum

    def test_manual_flush_mode(self, setup):
        _cluster, controller, server = setup
        server.auto_flush = False
        first = connect(server)
        first.startup("DBclient")
        first.bundle_setup(db_rsl("c1"))
        variable = first.add_variable("where.option", "QS",
                                      VariableType.STRING)
        for host in ("c2", "c3"):
            other = connect(server)
            other.startup("DBclient")
            other.bundle_setup(db_rsl(host))
        assert variable.value == "QS"  # buffered, not yet flushed
        server.flush_pending_vars()    # the paper's flushPendingVars()
        assert variable.value == "DS"


class TestPaperStyleCApi:
    def test_module_level_functions(self, setup):
        _cluster, _controller, server = setup
        client = connect(server)
        set_default_client(client)
        try:
            key = harmony_startup("DBclient")
            assert key == "DBclient.1"
            config = harmony_bundle_setup(db_rsl("c1"))
            assert config["option"] == "QS"
            variable = harmony_add_variable("where.option", "QS",
                                            VariableType.STRING)
            assert variable.value == "QS"
            harmony_end()
        finally:
            set_default_client(None)

    def test_the_figure5_interrupt_flag_and_update_wait(self, setup):
        _cluster, _controller, server = setup
        set_default_client(connect(server))
        try:
            key = harmony_startup("DBclient", True)
            assert server._sessions_by_key[key].use_interrupts
            harmony_bundle_setup(db_rsl("c1"))
            # The initial choice was pushed during setup; the wait
            # returns that batch instead of blocking.
            update = harmony_wait_for_update(5.0)
            assert update["where.option"] == "QS"
            harmony_end()
        finally:
            set_default_client(None)

    def test_no_default_client_raises(self):
        set_default_client(None)
        with pytest.raises(ProtocolError):
            harmony_startup("X")


class TestOverTcp:
    def test_full_session_over_real_sockets(self):
        cluster = Cluster.star("server0", ["c1"], memory_mb=128)
        controller = AdaptationController(cluster)
        server = HarmonyServer(controller)
        host, port = server.serve_tcp(port=0)
        try:
            from repro.api import TcpTransport
            client = HarmonyClient(TcpTransport.connect(host, port))
            key = client.startup("DBclient")
            assert key == "DBclient.1"
            config = client.bundle_setup(db_rsl("c1"))
            assert config["option"] in ("QS", "DS")
            variable = client.add_variable("where.option", "??",
                                           VariableType.STRING)
            assert variable.value == config["option"]
            client.report_metric("response_time", 4.2)
            client.end()
            assert len(controller.registry) == 0
        finally:
            server.stop()

"""A node failure that displaces several bundles restores exactly.

The live controller strips every placement off the failed node before it
re-places any, and replay makes the same displacement through the same
controller edit (``fail_node``), so each ``apply`` record after a
``node_failure`` reproduces its logged objective.  Over a grid of small
full meshes the live state must equal, on ``describe_system``,
``predict_all`` and the objective, each of:

* ``restore()`` from the WAL tail (genesis plus every record);
* ``restore()`` from a snapshot taken before the failure, plus the tail;
* a :class:`ReplicationStandby` following the primary over an in-process
  pair.

The second half checks that those three paths build the controller's
derived state through the same edits: right after a restore the
partition index already holds every bundle and knows every opaque model.
"""

import pytest

from repro.api import HarmonyServer
from repro.api.transport import connected_pair
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.persistence import DurabilityJournal, ReplicationStandby
from repro.prediction.models import CallableModel
from tests.pods import POD_RSL, build_pod_cluster

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""

PATHS = ("wal_tail", "snapshot", "standby")


def digest(controller):
    return (controller.describe_system(),
            controller.predict_all(controller.view),
            controller.current_objective())


def assert_same_state(restored, live):
    system, predictions, objective = digest(restored)
    live_system, live_predictions, live_objective = digest(live)
    assert system == live_system
    assert sorted(predictions) == sorted(live_predictions)
    for key, value in live_predictions.items():
        assert predictions[key] == pytest.approx(value, abs=1e-9)
    assert objective == pytest.approx(live_objective, abs=1e-9)


def journaled(cluster, directory, model_registry=None):
    controller = AdaptationController(cluster)
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=0,
                                model_registry=model_registry)
    journal.attach(controller)
    return controller, journal


def follow(controller, directory, model_registry=None):
    """A standby following ``controller`` from its first record."""
    server = HarmonyServer(controller)
    assert server.enable_replication(lease_seconds=30.0) == "primary"
    standby = ReplicationStandby(str(directory), "sb", fsync="never",
                                 model_registry=model_registry)
    client_end, server_end = connected_pair()
    server.attach(server_end)
    standby.follow(client_end)
    return standby


def run_to(path, tmp_path, cluster, script, model_registry=None):
    """Run ``script`` on a journaled controller; return it and the
    controller ``path`` rebuilt from what it journaled.

    ``script(controller, checkpoint)`` calls ``checkpoint()`` where a
    snapshot belongs on the snapshot path.
    """
    live, journal = journaled(cluster, tmp_path / "live", model_registry)
    standby = follow(live, tmp_path / "standby", model_registry) \
        if path == "standby" else None

    def checkpoint():
        if path == "snapshot":
            journal.snapshot_now()

    script(live, checkpoint)
    journal.close()
    if standby is not None:
        return live, standby.controller
    restored = AdaptationController.restore(
        str(tmp_path / "live"), model_registry=model_registry,
        fsync="never")
    assert (restored.last_recovery.snapshot_path is not None) == \
        (path == "snapshot")
    return live, restored


def on_node(controller, hostname):
    """How many bundles are placed on ``hostname``."""
    return sum(state.chosen is not None
               and hostname in state.chosen.assignment.hostnames()
               for instance in controller.registry.instances()
               for state in instance.bundles.values())


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("apps", range(3, 9))
@pytest.mark.parametrize("nodes", range(2, 5))
def test_node_failure_displacing_several_bundles_restores(
        tmp_path, nodes, apps, path):
    displaced = []

    def script(controller, checkpoint):
        for index in range(apps):
            instance = controller.register_app(f"app{index}")
            controller.setup_bundle(instance,
                                    RSL.format(name=f"app{index}"))
        checkpoint()
        displaced.append(on_node(controller, "n0"))
        controller.handle_node_failure("n0")

    cluster = Cluster.full_mesh([f"n{i}" for i in range(nodes)],
                                memory_mb=256)
    live, restored = run_to(path, tmp_path, cluster, script)
    assert displaced[0] >= 1
    assert on_node(live, "n0") == 0
    assert_same_state(restored, live)


def test_the_grid_holds_double_displacements(tmp_path):
    """The grid above is not vacuous: in 15 of its 18 cells failing
    ``n0`` takes two or more placements off it at once."""
    doubles = 0
    for nodes in range(2, 5):
        for apps in range(3, 9):
            controller = AdaptationController(Cluster.full_mesh(
                [f"n{i}" for i in range(nodes)], memory_mb=256))
            for index in range(apps):
                instance = controller.register_app(f"app{index}")
                controller.setup_bundle(instance,
                                        RSL.format(name=f"app{index}"))
            doubles += on_node(controller, "n0") >= 2
    assert doubles == 15


def _partitions(controller):
    return sorted(sorted(members) for members, _ in
                  controller.partition_index.components(
                      ((instance.key, name), state)
                      for instance in controller.registry.instances()
                      for name, state in instance.bundles.items()))


@pytest.mark.parametrize("path", PATHS)
def test_restored_index_is_built_by_the_same_edits(tmp_path, path):
    """The restored bundles fall into the live components, and every
    opaque model is known to the engine's first read: no restore path
    leaves the index anything to heal."""
    registry = {"opaque": CallableModel(
        lambda demands, assignment, view: 2.0)}

    def script(controller, checkpoint):
        instances = []
        for index in range(4):
            instance = controller.register_app(f"Pod{index % 2}App{index}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=index % 2, index=index))
            instances.append(instance)
        controller.register_model(instances[0], "size", registry["opaque"],
                                  model_name="opaque")
        controller.reevaluate()
        checkpoint()

    live, restored = run_to(path, tmp_path, build_pod_cluster(2, 4),
                            script, model_registry=registry)
    index = restored.partition_index
    assert _partitions(restored) == _partitions(live)
    assert sum(len(members) for members in _partitions(restored)) == 4
    assert not index.prunable(restored.objective)
    assert restored._engine._opaque == live._engine._opaque == {"Pod0App0.1"}

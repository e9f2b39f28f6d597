"""Pod-striped deployments shared by the partition and trace suites.

Each pod is a full mesh of nodes ``p<pod>n<i>``; ``POD_RSL`` constrains
an application to one pod's hostnames, so every pod is its own
partition of the :class:`~repro.controller.partition.PartitionIndex`.
"""

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy

POD_RSL = """
harmonyBundle Pod{pod}App{index} size {{
    {{small {{node n {{hostname p{pod}n*}} {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{hostname p{pod}n*}} {{seconds 35}} {{memory 24}}
             {{replicate 2}}}}
            {{communication 4}}}}}}
"""


def build_pod_cluster(pods: int, nodes_per_pod: int = 4) -> Cluster:
    cluster = Cluster()
    for pod in range(pods):
        hosts = [f"p{pod}n{i}" for i in range(nodes_per_pod)]
        for host in hosts:
            cluster.add_node(host, memory_mb=256.0)
        for i in range(len(hosts)):
            for j in range(i + 1, len(hosts)):
                cluster.add_link(hosts[i], hosts[j], bandwidth_mbps=100.0)
    return cluster


def pod_controller(pods=2, apps_per_pod=2):
    cluster = build_pod_cluster(pods)
    controller = AdaptationController(
        cluster, policy=ModelDrivenPolicy(pairwise_exchange=False))
    index = 0
    for pod in range(pods):
        for _ in range(apps_per_pod):
            instance = controller.register_app(f"Pod{pod}App{index}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=pod, index=index))
            index += 1
    return controller

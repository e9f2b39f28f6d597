#!/usr/bin/env python3
"""Adapting to load Harmony does not control (paper Section 4.3).

"During application execution, we continue this process on a periodic
basis to adapt the system due to changes out of Harmony's control (such as
network traffic due to other applications)."

An application that can run on either of two machines is placed on nodeA.
At t = 60 s an unmanaged batch job (invisible to Harmony except through
the metric interface) starts hammering nodeA.  The cluster collector
samples CPU load, the periodic re-evaluation folds the surplus into its
contention model, and the controller migrates the application to nodeB.

Run:  python examples/external_load_adaptation.py
"""

from repro.cluster import BackgroundCpuLoad, Cluster, LoadPhase
from repro.controller import AdaptationController
from repro.metrics import ClusterCollector

BUNDLE = """
harmonyBundle Service where {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 10} {memory 16}}}}
"""


def main() -> None:
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)

    controller = AdaptationController(cluster,
                                      reevaluation_period_seconds=20.0)
    collector = ClusterCollector(cluster, controller.metrics,
                                 period_seconds=5.0)

    service = controller.register_app("Service")
    state = controller.setup_bundle(service, BUNDLE)
    print(f"t=  0: Service placed on option {state.chosen.option_name!r}")

    collector.start()
    controller.start_periodic_reevaluation()

    def launch_load():
        yield cluster.kernel.timeout(60.0)
        print("t= 60: unmanaged batch job starts on nodeA "
              "(3 competing processes)")
        load = BackgroundCpuLoad(cluster, "nodeA", [
            LoadPhase(duration_seconds=400.0, parallelism=3, demand=7.3)])
        load.start()

    cluster.kernel.spawn(launch_load())
    cluster.run(until=200.0)
    controller.stop_periodic_reevaluation()
    collector.stop()

    print(f"t=200: Service is now on option {state.chosen.option_name!r}")
    print(f"       measured external load on nodeA: "
          f"{controller.view.external_cpu_load('nodeA'):.1f} competing "
          f"processes")
    print("\ndecision log:")
    for trace in controller.trace_log.traces():
        print(f"  t={trace.time:6.1f}  {trace.app_key}: "
              f"{trace.old_configuration or 'start'} -> "
              f"{trace.new_configuration}  ({trace.trigger})")
    assert state.chosen.option_name == "onB"
    print("\nthe controller moved the service away from load it never "
          "placed,\nseen only through the metric interface.")


if __name__ == "__main__":
    main()

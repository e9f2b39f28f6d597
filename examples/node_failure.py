#!/usr/bin/env python3
"""Adapting to the deletion (and return) of nodes — the abstract's claim.

A variable-parallelism Bag application runs on five of eight machines.
Four machines fail mid-run; with only four survivors Harmony shrinks the
job to the best remaining width at the next iteration boundary.  When the
machines return, the job grows back to its five-node optimum.

Run:  python examples/node_failure.py
"""

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.apps import BagOfTasksApp
from repro.cluster import Cluster
from repro.controller import AdaptationController


def main() -> None:
    cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                memory_mb=128)
    controller = AdaptationController(cluster,
                                      reevaluation_period_seconds=60.0)
    server = HarmonyServer(controller)

    client_end, server_end = connected_pair()
    server.attach(server_end)
    app = BagOfTasksApp("Bag", cluster, HarmonyClient(client_end),
                        total_seconds_per_iteration=2400.0,
                        task_count=24, domain=tuple(range(1, 9)),
                        overhead_alpha=12)
    app.start(run_until=6000.0)

    def chaos():
        yield cluster.kernel.timeout(800.0)
        state = controller.registry.instances()[0].bundles["parallelism"]
        victims = sorted(state.chosen.assignment.hostnames())[:4]
        print(f"t= 800: nodes {victims} fail")
        for victim in victims:
            stranded = controller.handle_node_failure(victim)
            assert not stranded
        yield cluster.kernel.timeout(2400.0)
        print(f"t=3200: nodes {victims} restored")
        for victim in victims:
            controller.handle_node_restored(victim)

    cluster.kernel.spawn(chaos())
    controller.start_periodic_reevaluation()
    cluster.run(until=6000.0)
    controller.stop_periodic_reevaluation()

    print("\niterations (start -> duration @ workers):")
    for start, elapsed, workers in app.iteration_series():
        print(f"  t={start:6.0f}  {elapsed:5.0f} s @ {workers} workers")

    print("\ndecisions:")
    for trace in controller.trace_log.traces():
        print(f"  t={trace.time:6.1f}  "
              f"{trace.old_configuration or 'start':22s} -> "
              f"{trace.new_configuration:22s} ({trace.trigger[:40]})")

    widths = [workers for _s, _e, workers in app.iteration_series()]
    assert min(widths) < 5 <= max(widths)
    print("\nthe job shrank onto the survivors and grew back — node "
          "deletion and addition, handled.")


if __name__ == "__main__":
    main()

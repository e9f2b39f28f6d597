"""The server subprocess of the wire workloads.

Builds the server the way ``harmony-repro serve`` does — a default
``AdaptationController`` over a full-mesh cluster, a ``HarmonyServer``
with inline sweeps and no leases, the threaded TCP front end unless told
otherwise — pre-admits the plan's population in process, and then obeys
one-line JSON commands on stdin (``stats``, ``trace``, ``quit``),
answering each with one JSON line on stdout.  End of input is ``quit``,
so the server never outlives the harness.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))


def main() -> int:
    from repro.api import AsyncHarmonyServer, HarmonyServer
    from repro.cluster import Cluster
    from repro.controller import AdaptationController

    import tracing
    from workloads import controller_totals, count_fsyncs

    config = json.loads(sys.stdin.readline())
    recorder = None
    if config["trace"]:
        recorder = tracing.SpanRecorder("server")
        recorder.install()
    fsyncs = count_fsyncs()

    controller = AdaptationController(
        Cluster.full_mesh(config["hosts"], memory_mb=256.0))
    server = HarmonyServer(controller)
    reconfigurations = []
    controller.add_listener(reconfigurations.append)
    choices = []
    for app_name, rsl in config["admissions"]:
        instance = controller.register_app(app_name)
        chosen = controller.setup_bundle(instance, rsl).chosen
        choices.append([instance.key, chosen.option_name,
                        dict(chosen.assignment.placements)])
    if config["front"] == "asyncio":
        front = AsyncHarmonyServer(server)
        host, port = front.serve("127.0.0.1", 0)
    else:
        front = server
        host, port = server.serve_tcp("127.0.0.1", 0)
    if config["scheduler"]:
        server.start_scheduler(coalesce_window=0.02, max_delay=0.2)

    def emit(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    emit({"host": host, "port": port, "choices": choices})
    for line in sys.stdin:
        command = json.loads(line)
        if command["do"] == "stats":
            emit(dict(controller_totals(controller, len(reconfigurations),
                                        fsyncs[0]),
                      heartbeats=server.heartbeats_received))
        elif command["do"] == "trace":
            tracing.write_jsonl(command["path"], recorder.rows())
            emit({"written": command["path"]})
        elif command["do"] == "quit":
            break
    front.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

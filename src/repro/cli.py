"""Command-line interface for the Harmony reproduction.

Installed as ``harmony-repro`` (or run as ``python -m repro.cli``):

* ``harmony-repro check FILE.rsl``  — parse, build, and lint an RSL file;
  exits non-zero on syntax/semantic errors (lint findings are warnings
  unless ``--strict``);
* ``harmony-repro tags``            — print the paper's Table 1 tag set;
* ``harmony-repro fig7 [...]``      — run the Section 6 database
  experiment and print the Figure 7 phases;
* ``harmony-repro fig4 [...]``      — run the Figure 4 repartitioning
  experiment;
* ``harmony-repro metrics [...]``   — run the Figure 7 experiment and dump
  its telemetry (Prometheus text or JSON snapshot);
* ``harmony-repro trace [...]``     — run the Figure 7 experiment and
  explain each reconfiguration (decision traces, optional JSONL dumps);
* ``harmony-repro serve [...]``     — start a real TCP Harmony server over
  a cluster described by ``harmonyNode`` declarations (``--dir`` makes it
  durable, restored from the directory if it holds state: a replicating
  primary, or, while ``--fencing`` names another server's live lease, a
  hot standby that follows that server and takes over when its lease
  lapses);
* ``harmony-repro replication [...]`` — query a running server's
  replication role, term, and standby lag;
* ``harmony-repro checkpoint [...]`` — journal a demo workload into a
  durability directory (optionally crashing mid-write to leave a torn
  tail for ``restore`` to repair);
* ``harmony-repro restore [...]``   — rebuild a controller from a
  durability directory and print the recovery report;
* ``harmony-repro health [...]``    — score the runtime health histograms
  against SLO thresholds (local demo workload or a running server);
* ``harmony-repro flightrec [...]`` — run a seeded chaos scenario and
  dump the server's flight-recorder timeline as JSON lines.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.errors import HarmonyError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmony-repro",
        description="Reproduction of 'Exposing Application Alternatives' "
                    "(ICDCS 1999) — the Active Harmony tuning interface.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser(
        "check", help="parse, build, and lint an RSL file")
    check.add_argument("file", help="path to an RSL script")
    check.add_argument("--strict", action="store_true",
                       help="treat lint findings as errors")

    subparsers.add_parser("tags", help="print the Table 1 tag registry")

    fmt = subparsers.add_parser(
        "format", help="canonically reformat an RSL file (to stdout)")
    fmt.add_argument("file", help="path to an RSL script")

    fig7 = subparsers.add_parser(
        "fig7", help="run the Section 6 database experiment (Figure 7)")
    _add_fig7_options(fig7)

    fig4 = subparsers.add_parser(
        "fig4", help="run the repartitioning experiment (Figure 4)")
    fig4.add_argument("--apps", type=int, default=3)

    metrics = subparsers.add_parser(
        "metrics", help="run the Figure 7 experiment and export its "
                        "telemetry")
    _add_fig7_options(metrics)
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus")
    metrics.add_argument("--prefix", default=None,
                         help="only export metric names with this prefix")

    trace = subparsers.add_parser(
        "trace", help="run the Figure 7 experiment and explain every "
                      "reconfiguration decision")
    _add_fig7_options(trace)
    trace.add_argument("--max", type=int, default=10,
                       help="print at most this many traces (newest last)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write decision traces as JSON lines")
    trace.add_argument("--spans", default=None, metavar="PATH",
                       help="also write timing spans as JSON lines")

    serve = subparsers.add_parser(
        "serve", help="start a TCP Harmony server (the Section 5 "
                      "prototype)")
    serve.add_argument("--nodes", required=True,
                       help="RSL file of harmonyNode declarations "
                            "describing the cluster")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--bandwidth", type=float, default=40.0,
                       help="full-mesh link bandwidth, MB/s")
    serve.add_argument("--transport", choices=("threaded", "asyncio"),
                       default="threaded",
                       help="TCP front end: one reader thread per "
                            "connection, or one asyncio event loop for "
                            "every socket (same wire protocol)")
    serve.add_argument("--once", action="store_true",
                       help="bind, print the address, and exit "
                            "(for scripting/tests)")
    serve.add_argument("--dir", default=None, metavar="PATH",
                       help="durability directory: journal every state "
                            "change, and restart from the state it holds "
                            "(required for replication roles)")
    serve.add_argument("--fencing", default=None, metavar="PATH",
                       help="shared fencing-record file deciding which "
                            "server may serve as primary")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="primary lease duration on the fencing "
                            "record")

    repl = subparsers.add_parser(
        "replication", help="query a running server's replication role, "
                            "term, and standby lag")
    repl.add_argument("--connect", required=True, metavar="HOST:PORT")

    checkpoint = subparsers.add_parser(
        "checkpoint", help="journal a demo workload (WAL + snapshots) "
                           "into a durability directory")
    checkpoint.add_argument("--dir", required=True,
                            help="durability directory (created if absent)")
    checkpoint.add_argument("--apps", type=int, default=4,
                            help="how many applications to register")
    checkpoint.add_argument("--snapshot-every", type=int, default=8,
                            help="snapshot cadence in WAL records "
                                 "(0 disables snapshots)")
    checkpoint.add_argument("--kill-after", type=int, default=None,
                            metavar="N",
                            help="simulate a crash with a torn write on "
                                 "the Nth WAL append (0-based)")

    restore = subparsers.add_parser(
        "restore", help="rebuild a controller from a durability "
                        "directory and print the recovery report")
    restore.add_argument("--dir", required=True,
                         help="durability directory written by checkpoint")

    health = subparsers.add_parser(
        "health", help="evaluate runtime health histograms against the "
                       "SLO thresholds")
    health.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="score a running server's STATUS payload "
                             "instead of running the local demo workload")
    health.add_argument("--strict", action="store_true",
                        help="exit non-zero if any SLO is breached")

    flightrec = subparsers.add_parser(
        "flightrec", help="run a seeded chaos scenario and dump the "
                          "server's flight recorder")
    flightrec.add_argument("--seed", type=int, default=7,
                           help="fault-schedule seed (same seed, same "
                                "fault sequence)")
    flightrec.add_argument("--out", default=None, metavar="PATH",
                           help="write the flight-recorder ring as JSON "
                                "lines")
    return parser


def _add_fig7_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=("rule", "model"),
                        default="rule")
    parser.add_argument("--tuples", type=int, default=10_000)
    parser.add_argument("--clients", type=int, default=3)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "tags": _cmd_tags,
        "format": _cmd_format,
        "fig7": _cmd_fig7,
        "fig4": _cmd_fig4,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "replication": _cmd_replication,
        "checkpoint": _cmd_checkpoint,
        "restore": _cmd_restore,
        "health": _cmd_health,
        "flightrec": _cmd_flightrec,
    }[args.command]
    try:
        return handler(args)
    except HarmonyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.rsl import Bundle, build_script, lint_bundle

    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    results = build_script(text)
    bundles = [r for r in results if isinstance(r, Bundle)]
    adverts = len(results) - len(bundles)
    print(f"{args.file}: {len(bundles)} bundle(s), "
          f"{adverts} node advertisement(s)")

    findings = 0
    for bundle in bundles:
        configurations = bundle.configuration_count()
        print(f"  harmonyBundle {bundle.app_name} {bundle.bundle_name}: "
              f"{len(bundle.options)} option(s), "
              f"{configurations} configuration(s)")
        for finding in lint_bundle(bundle):
            findings += 1
            print(f"    warning: {finding}")
    if findings:
        print(f"{findings} lint finding(s)")
        if args.strict:
            return 2
    else:
        print("no lint findings")
    return 0


def _cmd_format(args: argparse.Namespace) -> int:
    from repro.rsl import (
        Bundle,
        build_script,
        pretty_bundle,
        unparse_advertisement,
    )

    with open(args.file, encoding="utf-8") as handle:
        results = build_script(handle.read())
    chunks = []
    for result in results:
        if isinstance(result, Bundle):
            chunks.append(pretty_bundle(result))
        else:
            chunks.append(unparse_advertisement(result) + "\n")
    print("".join(chunks), end="")
    return 0


def _cmd_tags(_args: argparse.Namespace) -> int:
    from repro.rsl.tags import TAG_REGISTRY

    width = max(len(name) for name in TAG_REGISTRY)
    print(f"{'Tag'.ljust(width)}  Purpose")
    for name, info in TAG_REGISTRY.items():
        print(f"{name.ljust(width)}  {info.purpose}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    result = _run_fig7_experiment(args)
    print(f"{result.queries_total} queries; switch at "
          f"t={result.switch_time}")
    for phase in result.phases:
        means = ", ".join(f"{c}={v:.1f}s" for c, v in sorted(
            phase.mean_response_by_client.items()))
        print(f"  [{phase.start_time:5.0f},{phase.end_time:5.0f}) "
              f"{phase.active_clients} client(s) "
              f"{phase.dominant_option}: {means}")
    return 0


def _run_fig7_experiment(args: argparse.Namespace, trace: bool = False):
    from repro.apps.database import (
        DatabaseExperimentConfig,
        run_database_experiment,
    )

    return run_database_experiment(DatabaseExperimentConfig(
        tuple_count=args.tuples, policy=args.policy,
        client_count=args.clients,
        total_duration_seconds=200.0 * (args.clients + 1),
        trace=trace))


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import json_snapshot, prometheus_text

    result = _run_fig7_experiment(args)
    if args.format == "prometheus":
        print(prometheus_text(result.metrics, prefix=args.prefix), end="")
    else:
        print(json.dumps(json_snapshot(result.metrics, prefix=args.prefix),
                         indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import decision_traces_to_jsonl, spans_to_jsonl

    result = _run_fig7_experiment(args, trace=args.spans is not None)
    traces = result.decision_traces
    shown = traces[-args.max:] if args.max and args.max > 0 else traces
    print(f"{len(traces)} decision trace(s); showing {len(shown)}")
    for trace in shown:
        print(f"\n[t={trace.time:.1f}s] {trace.app_key} "
              f"bundle={trace.bundle_name} trigger={trace.trigger!r}")
        print(f"  objective {trace.objective_before:.6g}s -> "
              f"{trace.objective_after:.6g}s; "
              f"chose {trace.chosen_option!r}")
        for candidate in trace.candidates:
            marker = "*" if candidate.chosen else " "
            reason = ("chosen" if candidate.chosen
                      else f"rejected: {candidate.rejection_reason}")
            print(f"  {marker} {candidate.option_name:>4}  "
                  f"predicted={candidate.predicted_seconds:.6g}s  "
                  f"friction={candidate.friction_cost_seconds:.6g}s  "
                  f"{reason}")
            if candidate.detail:
                print(f"        {candidate.detail}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(decision_traces_to_jsonl(traces))
        print(f"\nwrote {len(traces)} trace(s) to {args.jsonl}")
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            handle.write(spans_to_jsonl(result.spans))
        print(f"wrote {len(result.spans)} span(s) to {args.spans}")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.apps.parallel_experiment import (
        ParallelExperimentConfig,
        run_parallel_experiment,
    )

    result = run_parallel_experiment(ParallelExperimentConfig(
        app_count=args.apps,
        total_duration_seconds=1500.0 * (args.apps + 1)))
    for frame in result.frames:
        partition = "+".join(str(n) for n in frame.partition())
        print(f"  frame {frame.frame_index} "
              f"({frame.active_apps} app(s)): {partition}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import HarmonyServer
    from repro.cluster import Cluster
    from repro.controller import AdaptationController
    from repro.rsl import NodeAdvertisement, build_script

    with open(args.nodes, encoding="utf-8") as handle:
        results = build_script(handle.read())
    adverts = [r for r in results if isinstance(r, NodeAdvertisement)]
    if not adverts:
        print("error: no harmonyNode declarations found",
              file=sys.stderr)
        return 1

    cluster = Cluster()
    for advert in adverts:
        memory = advert.memory if not math.isinf(advert.memory) else 1024.0
        cluster.add_node(advert.hostname, speed=advert.speed,
                         memory_mb=memory, os=advert.os or "linux",
                         attributes=dict(advert.attributes))
    hostnames = cluster.hostnames()
    for index, host_a in enumerate(hostnames):
        for host_b in hostnames[index + 1:]:
            cluster.add_link(host_a, host_b, args.bandwidth)

    controller = AdaptationController(cluster)
    if args.dir:
        from repro.persistence import DurabilityJournal, snapshot_files

        journal = DurabilityJournal(args.dir)
        if not (journal.wal.last_seq or snapshot_files(args.dir)):
            journal.attach(controller)
        else:  # a restart: serve the state the directory holds
            journal.close()
            controller = AdaptationController.restore(args.dir)
            restored = controller.cluster.hostnames()
            if sorted(restored) != sorted(hostnames):
                controller.journal.close()
                print(f"error: {args.dir} holds a cluster of "
                      f"{', '.join(restored)}, not the hosts --nodes "
                      f"names", file=sys.stderr)
                return 1
    # A durable server is a standby until it has claimed a term: nothing
    # is served under no term while it binds.
    server = HarmonyServer(controller, standby=bool(args.dir))

    if args.transport == "asyncio":
        from repro.api import AsyncHarmonyServer

        front = AsyncHarmonyServer(server)
        host, port = front.serve(args.host, args.port)
    else:
        front = server
        host, port = server.serve_tcp(args.host, args.port)
    role = "server"
    if args.dir:
        fencing = None
        if args.fencing:
            from repro.persistence import FencingStore

            fencing = FencingStore(args.fencing)
        # Fenced out, the server follows the holder the fencing record
        # names, from its own directory, on each tick.
        role = server.enable_replication(
            fencing=fencing, lease_seconds=args.lease_seconds,
            address=f"{host}:{port}")
        if role == "primary":
            with server.controller_lock:
                controller.configure_stranded()
    print(f"Harmony {role} on {host}:{port} ({args.transport}) managing "
          f"{len(hostnames)} node(s): {', '.join(hostnames)}")

    def shut_down() -> None:
        front.stop()
        journal = server.controller.journal
        if journal is not None:
            journal.close()

    if args.once:
        shut_down()
        return 0
    period = min(1.0, args.lease_seconds / 3.0)  # the serve loop's tick
    try:
        import time
        while True:
            time.sleep(period)
            server.tick()
    except KeyboardInterrupt:
        shut_down()
    return 0


def _query_status(address: str) -> dict:
    """The ``status`` payload of the server at ``HOST:PORT``."""
    from repro.api import HarmonyClient
    from repro.api.transport import TcpTransport

    host, _, port = address.rpartition(":")
    client = HarmonyClient(TcpTransport.connect(host or "127.0.0.1",
                                                int(port)))
    try:
        return client.query_status()
    finally:
        client.transport.close()


def _cmd_replication(args: argparse.Namespace) -> int:
    replication = _query_status(args.connect)["replication"]
    print(f"{args.connect}: role={replication.get('role', '?')} "
          f"term={replication.get('term', 0)} "
          f"last_seq={replication.get('last_seq', 0)}")
    standbys = replication.get("standbys", [])
    if not standbys:
        print("  no connected standbys")
    for entry in standbys:
        print(f"  standby {entry.get('standby_id', '?')}: "
              f"acked_seq={entry.get('acked_seq', 0)} "
              f"lag={entry.get('lag_records', 0)} record(s)")
    return 0


_DEMO_RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.cluster import Cluster
    from repro.controller import AdaptationController
    from repro.persistence import (
        CrashPoint,
        DurabilityJournal,
        ScriptedCrashSchedule,
        SimulatedCrash,
        snapshot_files,
    )

    schedule = None
    if args.kill_after is not None:
        schedule = ScriptedCrashSchedule(
            {args.kill_after: CrashPoint.TORN_APPEND})

    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=256))
    journal = DurabilityJournal(args.dir,
                                snapshot_every=args.snapshot_every,
                                crash_schedule=schedule)
    journal.attach(controller)
    crashed = False
    try:
        for index in range(args.apps):
            instance = controller.register_app(f"app{index}")
            controller.setup_bundle(instance,
                                    _DEMO_RSL.format(name=f"app{index}"))
        controller.handle_node_failure("n0")
        controller.handle_node_restored("n0")
        controller.configure_stranded()
    except SimulatedCrash as crash:
        crashed = True
        print(f"simulated crash: torn write on WAL append "
              f"#{crash.append_index} — run restore to repair")
    journal.close()

    print(f"{args.dir}: {journal.wal.append_count} append(s), "
          f"{journal.wal.bytes_written} byte(s), "
          f"{len(snapshot_files(args.dir))} snapshot(s)")
    if not crashed:
        print(f"{len(controller.registry)} application(s) journaled; "
              f"objective {controller.current_objective():.6g}s")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from repro.controller import AdaptationController

    controller = AdaptationController.restore(args.dir)
    report = controller.last_recovery
    snapshot = (f"snapshot seq {report.snapshot_seq}"
                if report.snapshot_path else "no snapshot (genesis)")
    print(f"{args.dir}: restored from {snapshot} + "
          f"{report.records_replayed} replayed record(s) "
          f"in {report.recovery_seconds:.3f}s")
    if report.skipped_snapshots:
        print(f"  skipped {len(report.skipped_snapshots)} "
              f"corrupt snapshot(s)")
    retried = controller.configure_stranded()
    if retried:
        print(f"  reconfigured {retried} stranded bundle(s)")
    print(f"{len(controller.registry)} application(s); "
          f"objective {controller.current_objective():.6g}s")
    for instance in controller.registry.instances():
        if not instance.bundles:
            print(f"  {instance.key}: no bundles (registration survived "
                  f"the crash; the bundle record did not)")
        for bundle_name, state in sorted(instance.bundles.items()):
            if state.chosen is None:
                print(f"  {instance.key} {bundle_name}: unconfigured")
            else:
                hosts = ",".join(sorted(
                    state.chosen.assignment.hostnames()))
                print(f"  {instance.key} {bundle_name}: "
                      f"{state.chosen.option_name} on {hosts}")
    controller.journal.close()
    return 0


_CHAOS_RSL = """
harmonyBundle DBclient where {{
    {{QS {{node server {{hostname server0}} {{seconds 9}} {{memory 20}}}}
        {{node client {{hostname {host}}} {{seconds 1}} {{memory 2}}}}
        {{link client server 2}}}}
    {{DS {{node server {{hostname server0}} {{seconds 1}} {{memory 20}}}}
        {{node client {{hostname {host}}} {{memory >=32}} {{seconds 18}}}}
        {{link client server 51}}}}}}
"""


def _run_chaos_demo(seed: int | None):
    """Drive a small seeded-chaos cohort against a local TCP server.

    Three database clients join over real sockets; one link is wrapped
    in a seeded fault schedule (drops on the send side, healed by the
    client's retry loop), metric reports feed the coalescing scheduler,
    and the whole run is observed by the always-on samplers: lock
    wait/hold, scheduler batch latency and backlog, and the flight
    recorder.  Returns the controller (server stopped) — its metric
    interface holds the histograms, its ``flight_recorder`` the event
    ring.  Deterministic for a given seed (``None`` injects no faults).
    """
    from repro.api import (
        FaultyTransport,
        HarmonyClient,
        HarmonyServer,
        RetryPolicy,
        SeededFaultSchedule,
        VariableType,
    )
    from repro.api.transport import TcpTransport
    from repro.cluster import Cluster
    from repro.controller import AdaptationController, ClientCountRulePolicy

    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    controller = AdaptationController(cluster, policy=policy)
    server = HarmonyServer(controller)
    host, port = server.serve_tcp("127.0.0.1", 0)
    server.start_scheduler(coalesce_window=0.02, max_delay=0.2)
    retry = RetryPolicy(request_timeout_seconds=2.0, max_attempts=6,
                        backoff_initial_seconds=0.05)
    clients = []
    try:
        for client_host in ("c1", "c2", "c3"):
            transport = TcpTransport.connect(host, port)
            if seed is not None and client_host == "c2":
                # Perturb exactly one link: outbound drops only, so a
                # timed-out request never has a late reply in flight.
                transport = FaultyTransport(
                    transport,
                    SeededFaultSchedule(seed=seed, drop_rate=0.3,
                                        directions=frozenset({"send"})),
                    metrics=controller.metrics,
                    recorder=controller.flight_recorder)
            client = HarmonyClient(transport, retry_policy=retry)
            client.startup("DBclient")
            client.bundle_setup(_CHAOS_RSL.format(host=client_host))
            client.add_variable("where.option", "??", VariableType.STRING)
            clients.append(client)
        # A burst of metric reports: coalesces into scheduler batches.
        for round_index in range(3):
            for index, client in enumerate(clients):
                client.report_metric("latency_ms",
                                     10.0 + index + round_index)
        generation = server.scheduler.request("cli:flush")
        server.scheduler.wait_for_generation(generation, timeout=10.0)
        for client in clients:
            client.end()
    finally:
        server.stop()
    return controller


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.health import evaluate_health, format_health

    if args.connect:
        histograms = _query_status(args.connect)["histograms"]
        print(f"{args.connect}: {len(histograms)} histogram(s)")
    else:
        controller = _run_chaos_demo(seed=None)
        histograms = {name: hist.snapshot()
                      for name, hist in controller.metrics.histograms()}
        print(f"local demo workload: {len(histograms)} histogram(s)")
    results = evaluate_health(histograms)
    print(format_health(results))
    breaches = [r for r in results if r.breached]
    if breaches:
        print(f"{len(breaches)} SLO breach(es)")
        return 2 if args.strict else 0
    print("all SLOs within thresholds")
    return 0


def _cmd_flightrec(args: argparse.Namespace) -> int:
    controller = _run_chaos_demo(seed=args.seed)
    recorder = controller.flight_recorder
    counts = recorder.counts()
    print(f"seed {args.seed}: {len(recorder)} event(s) in the ring "
          f"({recorder.events_recorded} recorded)")
    for kind in sorted(counts):
        print(f"  {kind:>20}: {counts[kind]}")
    if args.out:
        recorder.dump(args.out)
        print(f"wrote {len(recorder)} event(s) to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

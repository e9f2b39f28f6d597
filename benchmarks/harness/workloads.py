"""The four workloads: seeded inputs, one round of ops, checked outputs.

Every workload uses the two-option small/large bundle of
``benchmarks/test_scale.py``.  A *round* builds fresh state (a new
controller, or a new server subprocess), runs the plan's fixed op
sequence with one op in flight, and returns its samples and exact
counters; ``run.py`` takes medians over rounds.  The same seed gives
the same plan, and the same plan gives the same decisions: the digest
over every reply must repeat across rounds and runs.

Why these four (see README.md for the layer each one isolates):

``flat_churn``     one 32-node partition, in process: the sweep itself.
``durable_churn``  small pod partitions with a journal: append,
                   checkpoint and recover beside a cheap sweep.
``wire_phases``    a phase boundary over loopback TCP: codec, transport,
                   dispatch; the controller decides nothing.
``wire_flip``      the full stack: an arrival and a departure, each
                   answered by server-initiated pushes to two incumbents.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from refclock import RefClock, Segment, server_cpu_clock
from tracing import read_jsonl

from repro.api import HarmonyClient, TcpTransport
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import HarmonyError
from repro.persistence import DurabilityJournal

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("flat_churn", "durable_churn", "wire_phases", "wire_flip")

#: Steady population of the churn workloads and of the server that
#: ``wire_phases`` talks to.
POPULATION = 48
FLAT_NODES = 32
PODS = 12
NODES_PER_POD = 4
FLIP_PODS = 4
#: Snapshot period of the journal, in appends (the journal's default).
SNAPSHOT_EVERY = 64

#: The per-app draws: small sets, so the seed changes who asks for what
#: (and with it every placement) without changing how much work an op is.
SMALL_SECONDS = (55, 60, 65)
LARGE_SECONDS = (33, 35, 37)
MEMORY_MB = (16, 24, 32)
OPTIONS = ("small", "large")


def bundle_rsl(app_name: str, small: int = 60, large: int = 35,
               memory: int = 24, pod: int | None = None) -> str:
    """The two-option bundle; ``pod`` scopes it to hosts ``p<pod>n*``."""
    host = f" {{hostname p{pod}n*}}" if pod is not None else ""
    return (
        f"harmonyBundle {app_name} size {{\n"
        f"    {{small {{node n{host} {{seconds {small}}} "
        f"{{memory {memory}}}}}}}\n"
        f"    {{large {{node n{host} {{seconds {large}}} "
        f"{{memory {memory}}} {{replicate 2}}}}\n"
        f"            {{communication 4}}}}}}\n")


def _drawn_rsl(rng: random.Random, app_name: str,
               pod: int | None = None) -> str:
    return bundle_rsl(app_name, rng.choice(SMALL_SECONDS),
                      rng.choice(LARGE_SECONDS), rng.choice(MEMORY_MB), pod)


@dataclass
class Plan:
    """One workload's inputs, all derived from the seed."""

    workload: str
    hosts: list[str]
    #: ``(app_name, rsl)`` admitted before the first op.
    population: list[tuple[str, str]]
    #: Apps the harness holds TCP connections for (wire workloads).
    clients: list[tuple[str, str]] = field(default_factory=list)
    #: One ``(app_name, rsl)`` per op (every workload but ``wire_phases``).
    arrivals: list[tuple[str, str]] = field(default_factory=list)
    ops: int = 0
    #: ``restore()`` calls timed per round.
    restores: int = 20
    #: ``(directory, live summary)`` of the journaled twin, once built.
    twin: tuple | None = None

    def cluster(self) -> Cluster:
        # The shape ``harmony-repro serve`` builds: every host linked to
        # every other at the default 40 MB/s.
        return Cluster.full_mesh(self.hosts, memory_mb=256.0)


def make_plan(workload: str, seed: int, ops: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flat_churn":
        hosts = [f"n{i}" for i in range(FLAT_NODES)]
        order = rng.sample(range(POPULATION + ops), POPULATION + ops)
        apps = [(f"App{i}", _drawn_rsl(rng, f"App{i}")) for i in order]
        return Plan(workload, hosts, apps[:POPULATION],
                    arrivals=apps[POPULATION:], ops=ops)
    pods = FLIP_PODS if workload == "wire_flip" else PODS
    hosts = [f"p{pod}n{i}" for pod in range(pods)
             for i in range(NODES_PER_POD)]
    order = rng.sample(range(pods), pods)
    if workload == "wire_flip":
        # Fixed demands: two incumbents running `large` fill a pod, so a
        # third arrival must flip both to `small`, and its exit back.
        def fixed(pod):
            return (f"Pod{pod}", bundle_rsl(f"Pod{pod}", pod=pod))
        population = [fixed(pod) for pod in order[1:] for _ in range(2)]
        rng.shuffle(population)
        return Plan(workload, hosts, population,
                    clients=[fixed(order[0])] * 2,
                    arrivals=[fixed(order[0])] * ops, ops=ops)
    # Arrivals cycle through the pods in a seeded order, so ending the
    # oldest app and admitting the next keeps every pod at its size.
    count = POPULATION + (ops if workload == "durable_churn" else 2)
    apps = []
    for index in range(count):
        pod = order[index % pods]
        apps.append((f"Pod{pod}", _drawn_rsl(rng, f"Pod{pod}", pod)))
    if workload == "durable_churn":
        return Plan(workload, hosts, apps[:POPULATION],
                    arrivals=apps[POPULATION:], ops=ops)
    return Plan(workload, hosts, apps[:POPULATION],
                clients=apps[POPULATION:], ops=ops)


class Decisions:
    """The digest over every decision a round saw, and the failed count."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.failed = 0

    def reply(self, key: str, option, placements) -> None:
        """One reply: its option must be one the bundle offers."""
        if option not in OPTIONS:
            self.failed += 1
        self._hash.update(
            f"{key}={option}@{sorted(dict(placements).items())};".encode())

    def expect(self, ok: bool) -> None:
        if not ok:
            self.failed += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class Round:
    """What one round measured."""

    setup: Segment
    ops: list[Segment]
    push_ms: list[float]
    recover_ms: list[float]
    peak_rss_mb: float
    #: Exact totals over the op loop (``run.py`` divides by ops).
    counters: dict[str, float]
    digest: str
    failed: int
    kernel_ms: float
    #: Wall window of each op, for stamping trace spans with their op,
    #: and of each timed ``restore()``.
    windows: list[tuple[int, int]]
    restore_windows: list[tuple[int, int]]
    #: ``durable_churn``: the same ops with no journal attached.
    volatile_ops: list[Segment] = field(default_factory=list)
    #: Server-side trace spans (traced wire rounds).
    server_spans: list[dict] = field(default_factory=list)


def count_fsyncs() -> list[int]:
    """Count ``os.fsync`` calls from here on; returns the live counter.

    Device flush time cannot be measured in this sandbox, so journaling
    is timed as CPU and its flushes are reported as an exact count.
    """
    counter = [0]
    real = os.fsync

    def counting_fsync(fd):
        counter[0] += 1
        return real(fd)

    os.fsync = counting_fsync
    return counter


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for {pid}")


def scratch_dir() -> str:
    """This process's own corner of ``out/``: journals, crash images.

    Keyed by pid so that two runs in one checkout, or the leftovers of a
    killed one, never meet.  ``run.py`` creates and removes it.
    """
    return os.path.join(OUT_DIR, f"scratch.{os.getpid()}")


def _fresh_dir(name: str) -> str:
    path = os.path.join(scratch_dir(), name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _state_summary(controller: AdaptationController):
    """What a restored controller must share with the live one."""
    chosen = sorted(
        (instance.key, name, state.chosen.option_name,
         sorted(state.chosen.assignment.placements.items()))
        for instance in controller.registry.instances()
        for name, state in instance.bundles.items()
        if state.chosen is not None)
    return len(controller.registry), chosen, controller.current_objective()


# -- the in-process churn workloads ------------------------------------------

#: The journal's counters, for a round that ran without one.
NO_JOURNAL = {"persistence.appends_per_op": 0,
              "persistence.wal_bytes_per_op": 0,
              "persistence.snapshots_per_op": 0,
              "persistence.replay_records": 0}


def controller_totals(controller: AdaptationController,
                      reconfigurations: int, fsyncs: int) -> dict[str, int]:
    """Running totals of the exact counters, under their metric names.

    Shared with the launcher, which reads the server's controller.
    """
    stats = controller.stats.snapshot()
    return {
        "controller.candidates_per_op": stats["candidates_evaluated"],
        "controller.sweeps_per_op": stats["partition_sweeps"],
        "controller.reconfigurations_per_op": reconfigurations,
        "controller.partition_pruned_per_op": stats["pruned_bundles"],
        "prediction.predictions_per_op": stats["predictions_recomputed"],
        "persistence.fsyncs_per_op": fsyncs,
    }


def _churn(clock: RefClock, plan: Plan, decisions: Decisions,
           journal_dir: str | None, fsyncs: list[int]):
    """Prefill, then ``end_app(oldest)`` + admit, once per arrival."""
    events = []
    reconfigurations = 0
    clock.begin()
    controller = AdaptationController(plan.cluster())
    journal = None
    if journal_dir is not None:
        journal = DurabilityJournal(
            journal_dir, snapshot_every=SNAPSHOT_EVERY,
            fsync="always").attach(controller)

    # Events are digested between ops, not inside the timed segment.
    controller.add_listener(events.append)
    setup = clock.end()
    live = collections.deque()

    def digest_events():
        nonlocal reconfigurations
        reconfigurations += len(events)
        for event in events:
            decisions.reply(event.app_key, event.option_name,
                            event.placements)
        events.clear()

    def admit(app_name, rsl):
        instance = controller.register_app(app_name)
        state = controller.setup_bundle(instance, rsl)
        live.append(instance)
        return state

    for app_name, rsl in plan.population:
        clock.begin()
        state = admit(app_name, rsl)
        setup.add(clock.end())
        decisions.expect(state.chosen is not None)
    digest_events()

    def totals():
        counts = controller_totals(controller, reconfigurations, fsyncs[0])
        if journal is not None:
            counts["persistence.appends_per_op"] = journal.wal.append_count
            counts["persistence.wal_bytes_per_op"] = \
                journal.wal.bytes_written
            counts["persistence.snapshots_per_op"] = \
                journal.snapshots_written
        return counts

    before = totals()
    ops, admissions, windows, images = [], [], [], []
    image_every = max(1, len(plan.arrivals) // plan.restores)
    for index, (app_name, rsl) in enumerate(plan.arrivals):
        opened = time.perf_counter_ns()
        try:
            # Two segments, so that the kernel runs between the two
            # sweeps and never more than ~25 ms from the work it scales.
            clock.begin()
            controller.end_app(live.popleft())
            op = clock.end()
            clock.begin()
            state = admit(app_name, rsl)
            admission = clock.end()
        except HarmonyError:
            decisions.failed += 1
            continue
        windows.append((opened, time.perf_counter_ns()))
        digest_events()
        decisions.expect(state.chosen is not None)
        op.add(admission)
        ops.append(op)
        admissions.append(admission.ref_ms)
        if journal is not None and index % image_every == image_every - 1:
            # What a crash here would leave behind: every append is
            # flushed, so a copy between ops is a consistent image.
            image = f"{journal_dir}.crash{len(images)}"
            shutil.copytree(journal_dir, image)
            images.append((image, _state_summary(controller)))
        if index % 50 == 49:
            gc.collect()
    after = totals()
    counters = dict(NO_JOURNAL)
    counters.update((name, after[name] - before[name]) for name in after)
    if journal is not None:
        journal.close()
    return setup, ops, admissions, windows, counters, images


def _time_restores(clock: RefClock, images, decisions: Decisions):
    """Time ``restore()`` on a copy of each ``(directory, live)`` image.

    The restored controller must match the live one the image was taken
    from: registry size, chosen options and placements, objective.
    """
    samples, windows, replayed = [], [], 0
    scratch = _fresh_dir("restore")
    # The first image is restored once more up front, untimed: the first
    # restore of a process pays for lazy imports and cold files.
    for index, (directory, live) in enumerate(images[:1] + images):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(directory, scratch)
        opened = time.perf_counter_ns()
        clock.begin()
        restored = AdaptationController.restore(scratch)
        elapsed = clock.end().ref_ms
        restored.journal.close()
        if index:
            samples.append(elapsed)
            windows.append((opened, time.perf_counter_ns()))
            decisions.expect(_state_summary(restored) == live)
            replayed += restored.last_recovery.records_replayed
        del restored
        if index % 5 == 0:
            gc.collect()
    shutil.rmtree(scratch, ignore_errors=True)
    return samples, windows, replayed


def recover_probe(clock: RefClock, plan: Plan, decisions: Decisions):
    """Recovery time of a workload that itself runs without a journal.

    Admits the plan's steady population under a journal — once a run,
    untimed, outside the op loop — and times ``restore()`` from what
    that wrote.
    """
    if plan.twin is None:
        directory = _fresh_dir(f"{plan.workload}.twin")
        controller = AdaptationController(plan.cluster())
        journal = DurabilityJournal(
            directory, snapshot_every=SNAPSHOT_EVERY,
            fsync="always").attach(controller)
        for app_name, rsl in plan.population + plan.clients:
            controller.setup_bundle(controller.register_app(app_name), rsl)
        plan.twin = (directory, _state_summary(controller))
        journal.close()
    samples, windows, _ = _time_restores(
        clock, [plan.twin] * plan.restores, decisions)
    return samples, windows


def churn_round(plan: Plan, fsyncs: list[int], volatile_twin: bool = False,
                probe_recovery: bool = True) -> Round:
    """One round of ``flat_churn`` or ``durable_churn``.

    ``volatile_twin`` reruns ``durable_churn``'s sequence with no journal
    attached: the journaling overhead by difference, and proof that
    journaling changes no decision.  ``probe_recovery=False`` skips the
    recovery probe of a workload that runs without a journal.
    """
    clock = RefClock()
    decisions = Decisions()
    durable = plan.workload == "durable_churn"
    directory = _fresh_dir(plan.workload) if durable else None
    setup, ops, admissions, windows, counters, images = _churn(
        clock, plan, decisions, directory, fsyncs)
    digest = decisions.hexdigest()
    volatile_ops = []
    if durable:
        recover_ms, restore_windows, replayed = _time_restores(
            clock, images, decisions)
        counters["persistence.replay_records"] = replayed
        for image, _ in images:
            shutil.rmtree(image)
        shutil.rmtree(directory)
        if volatile_twin:
            twin = Decisions()
            volatile_ops = _churn(clock, plan, twin, None, fsyncs)[1]
            decisions.expect(twin.hexdigest() == digest)
    else:
        recover_ms, restore_windows = recover_probe(clock, plan, decisions) \
            if probe_recovery else ([], [])
    return Round(
        setup=setup, ops=ops, push_ms=admissions, recover_ms=recover_ms,
        peak_rss_mb=peak_rss_mb(), counters=counters, digest=digest,
        failed=decisions.failed,
        kernel_ms=statistics.median(clock.kernel_readings),
        windows=windows, restore_windows=restore_windows,
        volatile_ops=volatile_ops)


# -- the wire workloads -------------------------------------------------------

class Server:
    """The launcher subprocess: one Harmony server, one command pipe."""

    def __init__(self, plan: Plan, front: str, scheduler: bool, trace: bool,
                 clock: RefClock):
        """Spawn and wait for the ready line, ticking the kernel meanwhile.

        Called inside an open :class:`RefClock` segment: the server's
        whole CPU clock and the wait for it are set-up time.
        """
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True, bufsize=1)
        clock.set_server(server_cpu_clock(self.proc.pid))
        try:
            self._send({"hosts": plan.hosts, "admissions": plan.population,
                        "front": front, "scheduler": scheduler,
                        "trace": trace})
            ready = self._receive(tick=clock.tick)
        except BaseException:
            self.stop()
            raise
        self.address = (ready["host"], ready["port"])
        #: ``[key, option, placements]`` of every pre-admitted app.
        self.choices = ready["choices"]

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def _receive(self, tick=None, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while not select.select([self.proc.stdout], [], [], 0.01)[0]:
            if tick is not None:
                tick()
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("launcher died or timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher closed its pipe")
        return json.loads(line)

    def command(self, do: str, **fields) -> dict:
        self._send(dict(fields, do=do))
        return self._receive()

    def connect(self) -> HarmonyClient:
        return HarmonyClient(TcpTransport.connect(*self.address))

    def stop(self) -> None:
        """Ask the launcher to exit; make sure it has."""
        try:
            if self.proc.poll() is None:
                self._send({"do": "quit"})
            self.proc.wait(timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


def wire_round(plan: Plan, front: str = "threaded", scheduler: bool = False,
               trace: bool = False, probe_recovery: bool = True) -> Round:
    """One round of ``wire_phases`` or ``wire_flip`` on a fresh server."""
    clock = RefClock()
    decisions = Decisions()
    clients = []
    clock.begin()
    server = Server(plan, front, scheduler, trace, clock)
    try:
        setup = clock.end()
        for key, option, placements in server.choices:
            decisions.reply(key, option, placements)
        for app_name, rsl in plan.clients:
            clock.begin()
            client = server.connect()
            clients.append(client)
            client.startup(app_name)
            reply = client.bundle_setup(rsl)
            # Every app is pushed its own first configuration as well;
            # consume it so the op loop starts with nothing pending.
            client.wait_for_update(timeout=10.0)
            setup.add(clock.end())
            decisions.reply(client.app_key, reply["option"],
                            reply["placements"])
        before = server.command("stats")
        if plan.workload == "wire_phases":
            ops, push_ms, windows = _phase_ops(
                clock, plan, clients, decisions, before["heartbeats"])
        else:
            ops, push_ms, windows = _flip_ops(clock, plan, server, clients,
                                              decisions)
        after = server.command("stats")
        counters = dict(NO_JOURNAL)
        counters.update((name, after[name] - before[name])
                        for name in after if name != "heartbeats")
        spans = []
        if trace:
            path = os.path.join(scratch_dir(), "server_spans.jsonl")
            server.command("trace", path=path)
            spans = read_jsonl(path)
            os.remove(path)
        rss = peak_rss_mb(server.proc.pid)
        for client in clients:
            client.end()
    finally:
        server.stop()
        for client in clients:
            client.transport.close()
    clock.set_server(None)
    recover_ms, restore_windows = recover_probe(clock, plan, decisions) \
        if probe_recovery else ([], [])
    return Round(
        setup=setup, ops=ops, push_ms=push_ms, recover_ms=recover_ms,
        peak_rss_mb=rss, counters=counters, digest=decisions.hexdigest(),
        failed=decisions.failed,
        kernel_ms=statistics.median(clock.kernel_readings),
        windows=windows, restore_windows=restore_windows,
        server_spans=spans)


def _phase_ops(clock, plan, clients, decisions, heartbeats):
    """Op = one phase boundary: report a metric, heartbeat, poll status.

    ``heartbeats`` is how many the server had received before the loop.
    """
    ops, polls, windows = [], [], []
    reports = [0] * len(clients)
    for index in range(plan.ops):
        which = index % len(clients)
        client = clients[which]
        value = float(index)
        opened = time.perf_counter_ns()
        try:
            clock.begin()
            client.report_metric("phase_seconds", value)
            client.heartbeat()
            clock.lap()
            status = client.query_status(prefix=f"app.{client.app_key}",
                                         max_traces=0)
            op = clock.end()
        except HarmonyError:
            decisions.failed += 1
            continue
        windows.append((opened, time.perf_counter_ns()))
        reports[which] += 1
        heartbeats += 1
        # One connection is served in order, so the reply must already
        # show this phase's report and heartbeat.
        series = status["metrics"].get(
            f"app.{client.app_key}.phase_seconds", {})
        decisions.expect(series.get("count") == reports[which]
                         and series.get("latest") == value
                         and status["server"].get("heartbeats_received")
                         == heartbeats)
        ops.append(op)
        polls.append(clock.last_lap.ref_ms)
        if index % 50 == 49:
            gc.collect()
    return ops, polls, windows


def _flip_ops(clock, plan, server, incumbents, decisions):
    """Op = a third app arrives in the incumbents' pod, then leaves.

    Arrival must push ``small`` to both incumbents and departure
    ``large``: exactly one update each per trigger, nothing else.
    """
    ops, push_ms, windows = [], [], []
    seen = [client.updates_received for client in incumbents]

    def pushed(option):
        """Block until both incumbents applied the update; check it."""
        for which, client in enumerate(incumbents):
            update = client.wait_for_update(timeout=10.0)
            seen[which] += 1
            decisions.expect(update.get("size.option") == option
                             and client.updates_received == seen[which])
            decisions.reply(client.app_key, update.get("size.option"),
                            {name: host for name, host in update.items()
                             if name.endswith(".hostname")})

    for index, (app_name, rsl) in enumerate(plan.arrivals):
        opened = time.perf_counter_ns()
        arrival = None
        try:
            clock.begin()
            arrival = server.connect()
            arrival.startup(app_name)
            op = clock.end()
            clock.begin()
            reply = arrival.bundle_setup(rsl)
            pushed("small")
            flip = clock.end()
            clock.begin()
            arrival.end()
            pushed("large")
            flop = clock.end()
        except HarmonyError:
            decisions.failed += 1
            if arrival is not None:
                arrival.transport.close()
            continue
        windows.append((opened, time.perf_counter_ns()))
        decisions.reply(arrival.app_key, reply["option"],
                        reply["placements"])
        op.add(flip)
        op.add(flop)
        ops.append(op)
        # One sample per op: arrivals and departures cost differently,
        # and the median of the two mixed would sit in the gap between.
        push_ms.append((flip.ref_ms + flop.ref_ms) / 2.0)
        if index % 50 == 49:
            gc.collect()
    return ops, push_ms, windows

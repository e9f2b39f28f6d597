"""Closed-loop concurrent-client load bench: serial vs coalesced admission.

The paper's prototype handles one application at a time; this bench
measures what the concurrent admission pipeline buys when N clients
arrive at once.  Each client is a real :class:`HarmonyClient` on its own
thread driving the full register → bundle_setup → heartbeat/metric loop
through the server's message path:

* **serial** — no scheduler, no partition index: every admission runs
  a full reevaluation sweep inline, exactly the pre-pipeline behaviour;
* **coalesced** — ``server.start_scheduler()`` plus partitioned
  optimization: admissions request a reevaluation and return; bursts
  merge into a handful of batched sweeps that clean-skip untouched pods
  (the equivalence tests prove the final state is identical).

Each run writes per-operation latency percentiles + histogram to
``benchmarks/results/load_latency_hist.json`` — the artifact the CI
bench-smoke job uploads.
"""

import asyncio
import collections
import json
import os
import pathlib
import resource
import threading
import time

import pytest

from repro.api import (
    HEARTBEAT,
    HEARTBEAT_ACK,
    AsyncHarmonyServer,
    FrameDecoder,
    HarmonyClient,
    HarmonyServer,
    connected_pair,
    encode_message,
    make_message,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController

from benchutil import fmt_row

HIST_JSON = pathlib.Path(__file__).parent / "results" / \
    "load_latency_hist.json"

#: Heartbeat + report_metric rounds each client runs after admission.
STEADY_ROUNDS = 5

#: The acceptance bar: coalesced register-burst throughput at 64 clients
#: must be at least this multiple of the serial baseline.
REQUIRED_SPEEDUP_AT_64 = 5.0


#: Clients per pod: the machine room is pods of 8 full-mesh nodes and
#: every client's bundle is hostname-scoped to its pod, so the partition
#: index confines each sweep to the pods the batch actually touched and
#: steady-state requests never queue behind a full-system sweep.
CLIENTS_PER_POD = 8


def two_option_rsl(index):
    pod = index // CLIENTS_PER_POD
    return f"""
harmonyBundle App{index} size {{
    {{small {{node n {{hostname p{pod}n*}} {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{hostname p{pod}n*}} {{seconds 35}} {{memory 24}}
             {{replicate 2}}}}
            {{communication 4}}}}}}
"""


def build_load_cluster(client_count):
    """One 8-node full-mesh pod per :data:`CLIENTS_PER_POD` clients."""
    pods = max(1, client_count // CLIENTS_PER_POD)
    cluster = Cluster()
    for pod in range(pods):
        hosts = [f"p{pod}n{i}" for i in range(8)]
        for host in hosts:
            cluster.add_node(host, memory_mb=256.0)
        for i in range(len(hosts)):
            for j in range(i + 1, len(hosts)):
                cluster.add_link(hosts[i], hosts[j], bandwidth_mbps=100.0)
    return cluster


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_load(client_count, coalesced):
    """Drive ``client_count`` closed-loop clients; returns measurements.

    The serial leg turns partition pruning off too: it is the
    pre-pipeline baseline (one full sweep inline per admission, every
    bundle re-evaluated), so the speedup column measures the whole
    concurrency stack — coalesced batching plus partition-pruned sweeps —
    against the paper's one-application-at-a-time prototype.
    """
    cluster = build_load_cluster(client_count)
    controller = AdaptationController(cluster)
    if not coalesced:
        controller.partition_index.prunable = lambda objective: False
    server = HarmonyServer(controller)
    if coalesced:
        server.start_scheduler(coalesce_window=0.01, max_delay=0.25)

    clients = []
    for _ in range(client_count):
        client_end, server_end = connected_pair()
        server.attach(server_end)
        clients.append(HarmonyClient(client_end))

    start_barrier = threading.Barrier(client_count + 1)
    admitted_barrier = threading.Barrier(client_count + 1)
    register_latencies = []
    steady_latencies = []
    record_lock = threading.Lock()

    def drive(index, client):
        start_barrier.wait(30.0)
        begin = time.perf_counter()
        client.startup(f"App{index}")
        client.bundle_setup(two_option_rsl(index))
        register_elapsed = time.perf_counter() - begin
        admitted_barrier.wait(60.0)
        mine = []
        for round_index in range(STEADY_ROUNDS):
            begin = time.perf_counter()
            client.heartbeat()
            client.report_metric("response_time",
                                 float(index + round_index))
            # Each client polls its own telemetry (the narrow status a
            # monitoring loop actually issues) — an unprefixed snapshot
            # serializes every series in the system on every poll.
            client.query_status(prefix=f"app.App{index}", max_traces=0)
            mine.append(time.perf_counter() - begin)
        with record_lock:
            register_latencies.append(register_elapsed)
            steady_latencies.extend(mine)

    threads = [threading.Thread(target=drive, args=(i, c), daemon=True)
               for i, c in enumerate(clients)]
    for thread in threads:
        thread.start()

    start_barrier.wait(30.0)
    burst_begin = time.perf_counter()
    admitted_barrier.wait(60.0)
    register_burst_seconds = time.perf_counter() - burst_begin
    for thread in threads:
        thread.join(60.0)
    # Converge: drain any pending coalesced sweep before declaring done.
    total_begin = time.perf_counter()
    server.stop()
    drain_seconds = time.perf_counter() - total_begin

    configured = sum(
        1 for instance in controller.registry.instances()
        for state in instance.bundles.values()
        if state.chosen is not None)
    assert configured == client_count, \
        f"{configured}/{client_count} clients configured"
    for node in controller.cluster.nodes():
        assert node.memory.reserved_mb <= node.memory.total_mb + 1e-9

    batches = controller.metrics.latest("controller.coalesced_batches")
    return {
        "register_burst_seconds": register_burst_seconds + (
            drain_seconds if coalesced else 0.0),
        "register_latencies": sorted(register_latencies),
        "steady_latencies": sorted(steady_latencies),
        "coalesced_batches": 0 if batches is None else int(batches),
    }


def merge_latency_hist(client_count, mode, measurements):
    """Merge one run's latency profile into load_latency_hist.json."""
    HIST_JSON.parent.mkdir(exist_ok=True)
    profile = {}
    if HIST_JSON.exists():
        profile = json.loads(HIST_JSON.read_text())
    steady = measurements["steady_latencies"]
    registers = measurements["register_latencies"]
    # Fixed log-scale bucket edges (seconds): stable across runs so the
    # artifact diffs cleanly.
    edges = [0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
    counts = [0] * (len(edges) + 1)
    for value in steady:
        slot = sum(1 for edge in edges if value >= edge)
        counts[slot] += 1
    profile.setdefault(str(client_count), {})[mode] = {
        "steady_p50_ms": round(percentile(steady, 0.50) * 1e3, 3),
        "steady_p95_ms": round(percentile(steady, 0.95) * 1e3, 3),
        "steady_p99_ms": round(percentile(steady, 0.99) * 1e3, 3),
        "register_p50_ms": round(percentile(registers, 0.50) * 1e3, 3),
        "register_p95_ms": round(percentile(registers, 0.95) * 1e3, 3),
        "histogram_edges_seconds": edges,
        "histogram_counts": counts,
    }
    HIST_JSON.write_text(json.dumps(profile, indent=2) + "\n")


@pytest.mark.parametrize("client_count", [32, 64, 128])
def test_concurrent_load(report, client_count):
    serial = run_load(client_count, coalesced=False)
    coalesced = run_load(client_count, coalesced=True)

    serial_wall = serial["register_burst_seconds"]
    coalesced_wall = coalesced["register_burst_seconds"]
    speedup = serial_wall / coalesced_wall if coalesced_wall > 0 \
        else float("inf")

    merge_latency_hist(client_count, "serial", serial)
    merge_latency_hist(client_count, "coalesced", coalesced)

    widths = [22, 12, 12]
    report(f"load_{client_count}clients", [
        f"Concurrent load: {client_count} closed-loop clients "
        f"(register burst + {STEADY_ROUNDS} steady rounds)", "",
        fmt_row(["", "serial", "coalesced"], widths),
        fmt_row(["register burst (s)", f"{serial_wall:.3f}",
                 f"{coalesced_wall:.3f}"], widths),
        fmt_row(["burst speedup", "1.0x", f"{speedup:.1f}x"], widths),
        fmt_row(["steady p50 (ms)",
                 f"{percentile(serial['steady_latencies'], .5) * 1e3:.2f}",
                 f"{percentile(coalesced['steady_latencies'], .5) * 1e3:.2f}"],
                widths),
        fmt_row(["steady p95 (ms)",
                 f"{percentile(serial['steady_latencies'], .95) * 1e3:.2f}",
                 f"{percentile(coalesced['steady_latencies'], .95) * 1e3:.2f}"],
                widths),
        fmt_row(["batched sweeps", "-",
                 str(coalesced["coalesced_batches"])], widths),
    ])

    # The coalesced pipeline really batched (far fewer sweeps than apps).
    assert 0 < coalesced["coalesced_batches"] < client_count
    # The acceptance bar from the issue: >=5x burst throughput at 64.
    if client_count == 64:
        assert speedup >= REQUIRED_SPEEDUP_AT_64, (
            f"64-client register burst speedup {speedup:.1f}x is below "
            f"the required {REQUIRED_SPEEDUP_AT_64}x")
    # Partitioned sweeps stay off the steady-state path: with hostname-
    # scoped bundles a batched sweep touches dirty pods only, so client
    # requests never queue behind a full-system re-optimization.
    if client_count == 128:
        steady_p95_ms = percentile(
            coalesced["steady_latencies"], 0.95) * 1e3
        assert steady_p95_ms < 10.0, (
            f"128-client steady-state p95 {steady_p95_ms:.1f}ms breaches "
            f"the 10ms bound")


# ---------------------------------------------------------------------------
# Async-transport load: thousands of REAL sockets against the asyncio
# front end (the threaded path would need one reader thread per socket).
# ---------------------------------------------------------------------------

#: One in this many async clients also exports a pod-scoped bundle, so
#: the register burst drives the scheduler + partitioned controller while
#: the bulk of the fleet exercises pure connection/session machinery.
BUNDLE_EVERY = 16

#: Heartbeat rounds per client in the steady phase.
ASYNC_ROUNDS = 5

#: The acceptance bar (the issue): at 1,000 concurrent sockets the
#: steady-state heartbeat RTT p95 must stay at or under this.
ASYNC_P95_BOUND_MS = 10.0

ASYNC_COUNTS = [1000]
if os.environ.get("REPRO_ASYNC_LOAD_FULL"):
    # The 10k point needs ~20k file descriptors in one process; it is
    # opt-in so the default CI budget and rlimits stay comfortable.
    ASYNC_COUNTS.append(10000)


class AsyncWireClient:
    """A minimal asyncio wire client: shared framing codec, no threads.

    The benchmark process cannot afford 1,000 :class:`HarmonyClient`
    reader threads, so load clients speak the protocol directly over
    ``asyncio.open_connection`` — the same ``encode_message`` /
    :class:`FrameDecoder` pair as every other endpoint.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.inbox = collections.deque()

    async def expect(self, *types):
        """The next frame of one of ``types`` (skips stray pushes)."""
        while True:
            while not self.inbox:
                data = await self.reader.read(65536)
                if not data:
                    raise ConnectionError("server closed the connection")
                self.inbox.extend(self.decoder.feed(data))
            frame = self.inbox.popleft()
            if frame.get("type") in types:
                return frame
            if frame.get("type") == "error":
                raise RuntimeError(f"server error: {frame.get('message')}")

    async def request(self, message, reply_type):
        self.writer.write(encode_message(message))
        await self.writer.drain()
        return await self.expect(reply_type)

    def close(self):
        self.writer.close()


async def drive_async_load(host, port, client_count, front):
    """Connect, admit, and heartbeat ``client_count`` real sockets."""
    # Connect in waves so the listen backlog never overflows.
    connect_begin = time.perf_counter()
    clients = []
    for base in range(0, client_count, 100):
        wave = await asyncio.gather(*[
            asyncio.open_connection(host, port)
            for _ in range(min(100, client_count - base))])
        clients.extend(AsyncWireClient(r, w) for r, w in wave)
    connect_seconds = time.perf_counter() - connect_begin

    register_latencies = []

    async def admit(index, client):
        begin = time.perf_counter()
        await client.request(
            make_message("register", app_name=f"Load{index}"),
            "registered")
        if index % BUNDLE_EVERY == 0:
            await client.request(
                make_message("bundle_setup",
                             rsl=two_option_rsl(index // BUNDLE_EVERY)),
                "bundle_ok")
        register_latencies.append(time.perf_counter() - begin)

    burst_begin = time.perf_counter()
    await asyncio.gather(*(admit(i, c) for i, c in enumerate(clients)))
    register_burst_seconds = time.perf_counter() - burst_begin
    assert front.connection_count == client_count

    # Steady state: paced heartbeat rounds.  Offsets stagger the fleet
    # across the round, so the offered load is a steady stream (what a
    # heartbeat interval produces in production), not a thundering herd
    # every round boundary — the single-core bench machine measures
    # queueing otherwise, not the transport.
    steady_latencies = []
    round_seconds = max(1.0, client_count / 400.0)

    async def beat(index, client):
        await asyncio.sleep(round_seconds * index / client_count)
        for _ in range(ASYNC_ROUNDS):
            begin = time.perf_counter()
            client.writer.write(encode_message(make_message(HEARTBEAT)))
            await client.writer.drain()
            await client.expect(HEARTBEAT_ACK)
            rtt = time.perf_counter() - begin
            steady_latencies.append(rtt)
            await asyncio.sleep(max(0.0, round_seconds - rtt))

    await asyncio.gather(*(beat(i, c) for i, c in enumerate(clients)))
    for client in clients:
        client.close()
    return {
        "connect_seconds": connect_seconds,
        "register_burst_seconds": register_burst_seconds,
        "register_latencies": sorted(register_latencies),
        "steady_latencies": sorted(steady_latencies),
    }


@pytest.mark.parametrize("client_count", ASYNC_COUNTS)
def test_async_socket_load(report, client_count):
    soft_limit, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft_limit < 2 * client_count + 256:
        pytest.skip(f"needs ~{2 * client_count} file descriptors, "
                    f"RLIMIT_NOFILE is {soft_limit}")

    bundle_count = (client_count + BUNDLE_EVERY - 1) // BUNDLE_EVERY
    cluster = build_load_cluster(
        ((bundle_count + CLIENTS_PER_POD - 1) // CLIENTS_PER_POD)
        * CLIENTS_PER_POD)
    controller = AdaptationController(cluster)
    server = HarmonyServer(controller)
    server.start_scheduler(coalesce_window=0.01, max_delay=0.25)
    front = AsyncHarmonyServer(server)
    host, port = front.serve(port=0)
    try:
        measurements = asyncio.run(
            drive_async_load(host, port, client_count, front))
    finally:
        front.stop()

    configured = sum(
        1 for instance in controller.registry.instances()
        for state in instance.bundles.values()
        if state.chosen is not None)
    assert configured == bundle_count, \
        f"{configured}/{bundle_count} bundles configured"
    assert len(controller.registry) == client_count

    steady = measurements["steady_latencies"]
    registers = measurements["register_latencies"]
    p50_ms = percentile(steady, 0.50) * 1e3
    p95_ms = percentile(steady, 0.95) * 1e3
    p99_ms = percentile(steady, 0.99) * 1e3
    batches = controller.metrics.latest("server.async.batches")

    merge_latency_hist(client_count, "async", measurements)

    widths = [26, 14]
    report(f"async_load_{client_count}sockets", [
        f"Async transport load: {client_count} real sockets "
        f"({ASYNC_ROUNDS} paced heartbeat rounds)", "",
        fmt_row(["connect (s)",
                 f"{measurements['connect_seconds']:.3f}"], widths),
        fmt_row(["register burst (s)",
                 f"{measurements['register_burst_seconds']:.3f}"], widths),
        fmt_row(["register p95 (ms)",
                 f"{percentile(registers, .95) * 1e3:.2f}"], widths),
        fmt_row(["steady p50 (ms)", f"{p50_ms:.3f}"], widths),
        fmt_row(["steady p95 (ms)", f"{p95_ms:.3f}"], widths),
        fmt_row(["steady p99 (ms)", f"{p99_ms:.3f}"], widths),
        fmt_row(["dispatch batches",
                 str(0 if batches is None else int(batches))], widths),
    ])

    # The acceptance bar: >=1,000 concurrent sockets with steady-state
    # heartbeat p95 at or under 10 ms.
    if client_count == 1000:
        assert p95_ms <= ASYNC_P95_BOUND_MS, (
            f"1k-socket steady-state p95 {p95_ms:.2f}ms breaches the "
            f"{ASYNC_P95_BOUND_MS}ms bound")

"""Federation scale bench: 512+ clients sharded across 4 controllers.

The tentpole acceptance run for the sharded-controller federation: a
4-shard :class:`~repro.controller.federation.Federation` (asyncio front
ends, coalescing schedulers, partitioned controllers) admits 512
bundle-exporting applications plus a handful of handoff subjects and
bundle-less drone sessions — 552 real sockets — and must prove

* **equivalence** — the workload is partition-disjoint (every bundle
  pins to hosts only its shard's sessions use), so each shard's
  placements, predictions, and objective must be *byte-identical*
  (``==``, not approximate) to a single-controller oracle that admits
  the whole workload by itself, and the shard objectives must compose
  back into exactly the oracle's global objective;
* **handoff fidelity** — moving a tuned session to a sibling shard and
  replaying the client's ``shard_moved`` → reconnect → ``resume_key``
  rejoin must preserve its instance key and its tuned option;
* **rebalance** — the arbiter's rebalancer levels session counts by
  moving unpinned sessions (the drones; every placed session sits on an
  arbiter-owned cross-shard host and is pinned);
* **latency** — steady-state heartbeat p95 across every shard stays
  under the same 10 ms bar the load benches hold.

The run merges ``fed_*`` columns into ``BENCH_scale.json`` (keyed by the
512-app point) and writes the per-shard convergence report to
``benchmarks/results/federation_convergence.json`` — the artifact the CI
``federation-smoke`` job uploads.
"""

import asyncio
import json
import pathlib
import resource
import time

import pytest

from repro.api import (
    HEARTBEAT,
    HEARTBEAT_ACK,
    AsyncHarmonyServer,
    encode_message,
    make_message,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, Federation, ShardMap

from benchutil import fmt_row, merge_bench_point
from test_load import AsyncWireClient, percentile

CONVERGENCE_JSON = pathlib.Path(__file__).parent / "results" / \
    "federation_convergence.json"

SHARDS = 4

#: Bundle-exporting applications (the equivalence workload).
APPS = 512

#: Tuned sessions handed to a sibling shard mid-run.
MOVERS = 8

#: Bundle-less sessions: the only thing a rebalance may move, because
#: every *placed* session sits on an arbiter-owned cross-shard host.
DRONES = 32

#: Paced heartbeat rounds per client in the steady phase.
STEADY_ROUNDS = 3

#: The acceptance bar shared with the load benches.
P95_BOUND_MS = 10.0


def app_rsl(name, host):
    """Two options pinned to the same host, so ``fast`` strictly
    dominates under any co-location and neither the admission
    interleaving nor the shard split can change the final placement —
    the oracle comparison can demand identity, not approximation."""
    return f"""
harmonyBundle {name} place {{
    {{fast {{node worker {{hostname {host}}} {{seconds 5}} {{memory 8}}}}}}
    {{slow {{node worker {{hostname {host}}} {{seconds 9}} {{memory 8}}}}}}}}
"""


def mover_rsl(name, host):
    return f"""
harmonyBundle {name} tune {{
    {{lean {{node worker {{hostname {host}}} {{seconds 4}} {{memory 8}}}}}}
    {{bulk {{node worker {{hostname {host}}} {{seconds 9}} {{memory 8}}}}}}}}
"""


def plan_workload():
    """Assign every client to its hash-owner shard, pin its host.

    Shard ownership comes from a throwaway :class:`ShardMap` — the ring
    depends only on shard *count*, so the plan agrees exactly with the
    live federation's routing.  Apps are packed two per host within
    their shard's hosts (real PS contention, still order-independent);
    movers get one dedicated host each so a handoff replay can never
    contend with the equivalence workload.
    """
    ring = ShardMap([f"plan-{i}" for i in range(SHARDS)])
    apps, movers, drones = [], [], []
    app_slots = [0] * SHARDS
    mover_slots = [0] * SHARDS
    for i in range(APPS):
        name = f"App{i}"
        shard = ring.shard_for(name)
        host = f"f{shard}n{app_slots[shard] // 2}"
        app_slots[shard] += 1
        apps.append({"name": name, "shard": shard,
                     "rsl": app_rsl(name, host)})
    for m in range(MOVERS):
        name = f"Mover{m}"
        shard = ring.shard_for(name)
        host = f"mv{shard}n{mover_slots[shard]}"
        mover_slots[shard] += 1
        movers.append({"name": name, "shard": shard,
                       "rsl": mover_rsl(name, host)})
    for d in range(DRONES):
        name = f"Drone{d}"
        drones.append({"name": name, "shard": ring.shard_for(name),
                       "rsl": None})
    app_hosts = [(slots + 1) // 2 for slots in app_slots]
    return apps, movers, drones, app_hosts, mover_slots


def build_machine_room(app_hosts, mover_hosts):
    """The full machine room, shared by every shard replica *and* the
    oracle.  Identical replicas make every host cross-shard (arbiter-
    owned), which is what pins placed sessions against rebalancing; the
    shared builder makes first-fit candidate order — and therefore
    placement — identical everywhere."""
    cluster = Cluster()
    for shard in range(SHARDS):
        for k in range(app_hosts[shard]):
            cluster.add_node(f"f{shard}n{k}", memory_mb=64.0)
        for j in range(mover_hosts[shard]):
            cluster.add_node(f"mv{shard}n{j}", memory_mb=64.0)
    return cluster


def run_oracle(apps, movers, app_hosts, mover_hosts):
    """The single-controller reference: the same workload, serially."""
    oracle = AdaptationController(
        build_machine_room(app_hosts, mover_hosts))
    for spec in list(apps) + list(movers):
        instance = oracle.register_app(spec["name"])
        oracle.setup_bundle(instance, spec["rsl"])
    return oracle


def predictions_by_name(controller):
    """Instance ids depend on per-controller arrival order; names are
    unique, so every cross-controller comparison keys on them."""
    return {key.rsplit(".", 1)[0]: value
            for key, value in
            controller.predict_all(controller.view).items()}


def describe_by_name(controller):
    lines = []
    for line in controller.describe_system():
        key, rest = line.split(" ", 1)
        lines.append(f"{key.rsplit('.', 1)[0]} {rest}")
    return sorted(lines)


def evaluate_sorted(controller, predictions):
    """The objective over a name-sorted dict: float summation order is
    part of "byte-identical", so both sides evaluate the same order."""
    return controller.objective.evaluate(dict(sorted(predictions.items())))


def split_address(address):
    host, port = address.rsplit(":", 1)
    return host, int(port)


def configured_count(fed):
    return sum(1 for shard in fed.shards
               for instance in shard.controller.registry.instances()
               for state in instance.bundles.values()
               if state.chosen is not None)


async def drive_federation(fed, specs):
    """Connect, admit, converge, and heartbeat every client."""
    connect_begin = time.perf_counter()
    clients = []
    for base in range(0, len(specs), 100):
        wave = await asyncio.gather(*[
            asyncio.open_connection(
                *split_address(fed.shards[spec["shard"]].address))
            for spec in specs[base:base + 100]])
        clients.extend(AsyncWireClient(r, w) for r, w in wave)
    connect_seconds = time.perf_counter() - connect_begin

    async def admit(spec, client):
        await client.request(
            make_message("register", app_name=spec["name"]), "registered")
        if spec["rsl"] is not None:
            reply = await client.request(
                make_message("bundle_setup", rsl=spec["rsl"]), "bundle_ok")
            spec["option"] = reply["option"]

    burst_begin = time.perf_counter()
    await asyncio.gather(*(admit(s, c) for s, c in zip(specs, clients)))
    register_burst_seconds = time.perf_counter() - burst_begin

    # Converge: every exported bundle configured before measuring.
    expected = sum(1 for spec in specs if spec["rsl"] is not None)
    deadline = time.perf_counter() + 180.0
    while configured_count(fed) < expected:
        assert time.perf_counter() < deadline, (
            f"only {configured_count(fed)}/{expected} bundles configured "
            f"before the convergence deadline")
        await asyncio.sleep(0.1)

    # Steady state: paced heartbeats (offsets spread the fleet across
    # the round so the bench measures the transport, not a thundering
    # herd's queueing).
    steady_latencies = []
    count = len(clients)
    round_seconds = max(1.0, count / 400.0)

    async def beat(index, client):
        await asyncio.sleep(round_seconds * index / count)
        for _ in range(STEADY_ROUNDS):
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
        "steady_latencies": sorted(steady_latencies),
    }


async def rejoin_after_handoff(origin_address, target_address, spec, key):
    """The client's half of a handoff: redirect, reconnect, resume.

    The origin must answer the stale ``resume_key`` with ``shard_moved``
    naming the target; the target must resume the original key and the
    bundle replay must re-choose the tuned option.
    """
    reader, writer = await asyncio.open_connection(
        *split_address(origin_address))
    client = AsyncWireClient(reader, writer)
    moved = await client.request(
        make_message("register", app_name=spec["name"], resume_key=key),
        "shard_moved")
    client.close()
    assert moved["leader"] == target_address, \
        f"redirect names {moved['leader']}, expected {target_address}"

    reader, writer = await asyncio.open_connection(
        *split_address(target_address))
    client = AsyncWireClient(reader, writer)
    registered = await client.request(
        make_message("register", app_name=spec["name"], resume_key=key),
        "registered")
    assert registered["resumed"] is True
    assert registered["key"] == key, \
        f"resumed as {registered['key']}, expected {key}"
    replay = await client.request(
        make_message("bundle_setup", rsl=spec["rsl"]), "bundle_ok")
    client.close()
    return replay["option"]


def live_key(fed, shard_index, app_name):
    for instance in fed.shards[shard_index].controller.registry.instances():
        if instance.app_name == app_name and not instance.ended:
            return instance.key
    raise AssertionError(f"{app_name} not live on shard {shard_index}")


def test_federation_scale(report):
    total_clients = APPS + MOVERS + DRONES
    soft_limit, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft_limit < 2 * total_clients + 256:
        pytest.skip(f"needs ~{2 * total_clients} file descriptors, "
                    f"RLIMIT_NOFILE is {soft_limit}")

    apps, movers, drones, app_hosts, mover_hosts = plan_workload()
    shard_names = [set() for _ in range(SHARDS)]
    for spec in apps + movers:
        shard_names[spec["shard"]].add(spec["name"])

    fed = Federation(
        lambda index: AdaptationController(
            build_machine_room(app_hosts, mover_hosts)),
        SHARDS)
    for shard in fed.shards:
        shard.server.start_scheduler(coalesce_window=0.01, max_delay=0.25)
    fronts = []

    def start(server):
        front = AsyncHarmonyServer(server)
        fronts.append(front)
        return front.serve(port=0)

    fed.serve(start)
    try:
        # Identical replicas: every host is cross-shard (arbiter-owned),
        # so every placed session is pinned where its resources live.
        assert len(fed.arbiter.cross_shard_hosts) == \
            len(list(fed.shards[0].controller.cluster.nodes()))

        measurements = asyncio.run(
            drive_federation(fed, apps + movers + drones))

        # -- equivalence against the single-controller oracle ------------
        oracle = run_oracle(apps, movers, app_hosts, mover_hosts)
        oracle_preds = predictions_by_name(oracle)
        oracle_lines = describe_by_name(oracle)
        shard_rows = []
        union_preds = {}
        for shard in fed.shards:
            names = shard_names[shard.index]
            preds = predictions_by_name(shard.controller)
            assert set(preds) == names, (
                f"shard {shard.index} placed {sorted(set(preds) ^ names)} "
                f"out of plan")
            assert preds == {name: oracle_preds[name] for name in names}
            lines = describe_by_name(shard.controller)
            assert lines == [line for line in oracle_lines
                             if line.split(" ", 1)[0] in names]
            shard_objective = evaluate_sorted(shard.controller, preds)
            oracle_objective = evaluate_sorted(
                oracle, {name: oracle_preds[name] for name in names})
            assert shard_objective == oracle_objective
            union_preds.update(preds)
            shard_rows.append({
                "index": shard.index,
                "address": shard.address,
                "sessions": shard.session_count,
                "placed": len(preds),
                "objective": shard_objective,
                "oracle_objective": oracle_objective,
                "identical": True,
            })
        composite = evaluate_sorted(oracle, union_preds)
        oracle_global = evaluate_sorted(oracle, oracle_preds)
        assert composite == oracle_global

        # -- cross-shard handoff preserves the tuned option --------------
        handoff_checks = []
        for spec in movers:
            origin = spec["shard"]
            target = (origin + 1) % SHARDS
            key = live_key(fed, origin, spec["name"])
            tuned = fed.shards[origin].controller.registry \
                .instance(key).bundles["tune"].chosen.option_name
            assert tuned == spec["option"] == "lean"
            assert fed.move_session(key, target)
            assert fed.arbiter.lookup(resume_key=key)["leader"] == \
                fed.shards[target].address
            handoff_checks.append((origin, target, spec, key))
        rejoined_options = asyncio.run(asyncio.wait_for(
            _rejoin_all(fed, handoff_checks), timeout=60.0))
        assert rejoined_options == ["lean"] * MOVERS
        assert fed.handoffs == MOVERS

        # -- rebalance levels the drones ---------------------------------
        before = [shard.session_count for shard in fed.shards]
        moved = fed.rebalance(max_moves=DRONES)
        after = [shard.session_count for shard in fed.shards]
        assert moved >= 1, f"rebalance moved nothing (counts {before})"
        assert max(after) - min(after) < max(before) - min(before)
        assert fed.rebalances >= 1

        # -- latency and artifacts ---------------------------------------
        steady = measurements["steady_latencies"]
        p50_ms = percentile(steady, 0.50) * 1e3
        p95_ms = percentile(steady, 0.95) * 1e3
        p99_ms = percentile(steady, 0.99) * 1e3

        CONVERGENCE_JSON.parent.mkdir(exist_ok=True)
        CONVERGENCE_JSON.write_text(json.dumps({
            "shards": shard_rows,
            "composite_objective": composite,
            "oracle_objective": oracle_global,
            "clients": {"apps": APPS, "movers": MOVERS, "drones": DRONES},
            "handoffs": fed.handoffs,
            "rebalances": fed.rebalances,
            "rebalance_moves": moved,
            "sessions_before_rebalance": before,
            "sessions_after_rebalance": after,
            "steady_p50_ms": round(p50_ms, 3),
            "steady_p95_ms": round(p95_ms, 3),
            "steady_p99_ms": round(p99_ms, 3),
        }, indent=2) + "\n")

        merge_bench_point(APPS, {
            "fed_shards": SHARDS,
            "fed_handoffs": fed.handoffs,
            "fed_rebalances": fed.rebalances,
            "fed_steady_p95_ms": round(p95_ms, 3),
        })

        widths = [30, 14]
        report("federation_512clients", [
            f"Federation: {total_clients} clients ({APPS} apps + "
            f"{MOVERS} movers + {DRONES} drones) across {SHARDS} shards",
            "",
            fmt_row(["sessions per shard",
                     "/".join(str(n) for n in before)], widths),
            fmt_row(["oracle-identical shards",
                     f"{len(shard_rows)}/{SHARDS}"], widths),
            fmt_row(["composite objective", f"{composite:.6f}"], widths),
            fmt_row(["connect (s)",
                     f"{measurements['connect_seconds']:.3f}"], widths),
            fmt_row(["register burst (s)",
                     f"{measurements['register_burst_seconds']:.3f}"],
                    widths),
            fmt_row(["steady p50 (ms)", f"{p50_ms:.3f}"], widths),
            fmt_row(["steady p95 (ms)", f"{p95_ms:.3f}"], widths),
            fmt_row(["steady p99 (ms)", f"{p99_ms:.3f}"], widths),
            fmt_row(["handoffs", str(fed.handoffs)], widths),
            fmt_row(["rebalance moves", str(moved)], widths),
        ])

        assert p95_ms < P95_BOUND_MS, (
            f"{total_clients}-client federation steady-state p95 "
            f"{p95_ms:.2f}ms breaches the {P95_BOUND_MS}ms bound")
    finally:
        for front in fronts:
            front.stop()
        fed.stop()
        for shard in fed.shards:
            shard.server.stop()
        fed.arbiter_server.stop()


async def _rejoin_all(fed, handoff_checks):
    return list(await asyncio.gather(*[
        rejoin_after_handoff(fed.shards[origin].address,
                             fed.shards[target].address, spec, key)
        for origin, target, spec, key in handoff_checks]))

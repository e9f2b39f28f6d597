#!/usr/bin/env python3
"""A client crashes mid-session; Harmony evicts it and it rejoins.

The paper's protocol has no liveness story: a client that dies without
``harmony_end`` strands its allocation forever.  This example runs the
fault-tolerant session machinery end to end, deterministically (in-process
transports, a manual clock, a seeded fault schedule):

1. three database clients join — the client-count rule flips everyone to
   data shipping (DS), exactly as in Figure 7;
2. one client's link drops a seeded fraction of its frames (the retry
   policy re-sends them) and is then severed outright — a crash;
3. the survivors keep heartbeating; the dead client's lease lapses and
   the controller evicts it, releasing its resources and flipping the
   two survivors back to query shipping (QS);
4. the crashed client rejoins through a fresh transport, replays its
   session, and — back at the threshold of three — every client returns
   to the same tuned option it held before the crash.

Run:  python examples/client_crash_recovery.py
"""

from repro.api import (
    FaultyTransport,
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    SeededFaultSchedule,
    VariableType,
    connected_pair,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy


def db_bundle(client_host: str) -> str:
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


def main() -> None:
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    controller = AdaptationController(
        cluster,
        policy=ClientCountRulePolicy(
            app_name="DBclient", bundle_name="where", threshold=3,
            below_option="QS", at_or_above_option="DS"))

    # A manual clock keeps lease arithmetic deterministic; a real server
    # would use the default (time.monotonic) and call server.tick() from
    # the loop that keeps it.
    clock = {"now": 0.0}
    server = HarmonyServer(controller, lease_seconds=10.0,
                           clock=lambda: clock["now"])

    def fresh_link():
        client_end, server_end = connected_pair()
        server.attach(server_end)
        return client_end

    retry = RetryPolicy(request_timeout_seconds=0.05, max_attempts=6,
                        backoff_initial_seconds=0.0)

    clients, options = {}, {}
    for host in ("c1", "c2", "c3"):
        transport = fresh_link()
        if host == "c2":
            # c2's link misbehaves: a quarter of its frames vanish, on a
            # seeded schedule, so this run replays identically every time.
            transport = FaultyTransport(transport, SeededFaultSchedule(
                seed=7, drop_rate=0.25, directions=frozenset({"send"})))
        client = HarmonyClient(transport, retry_policy=retry,
                               transport_factory=fresh_link)
        client.startup("DBclient")
        client.bundle_setup(db_bundle(host))
        options[host] = client.add_variable(
            "where.option", "QS", VariableType.STRING)
        clients[host] = client

    lossy = clients["c2"].transport
    print("three clients joined; options:",
          {h: options[h].value for h in options})
    print(f"c2's lossy link already dropped {lossy.stats.dropped} frame(s);"
          f" the retry policy re-sent them ({clients['c2'].retries} retries)")
    assert all(options[h].consume() == "DS" for h in options)

    # ---- the crash --------------------------------------------------------
    lossy.sever()
    print("\nc2 crashed (link severed, no harmony_end)")

    clock["now"] = 6.0
    clients["c1"].heartbeat()
    clients["c3"].heartbeat()
    clock["now"] = 11.0
    evicted = server.check_leases()
    print(f"t=11s: lease check evicted {evicted}")
    assert evicted == [clients["c2"].app_key]
    assert [options[h].consume() for h in ("c1", "c3")] == ["QS", "QS"]
    print("survivors were re-optimized back to:",
          {h: options[h].value for h in ("c1", "c3")})
    event = [event for event in controller.flight_recorder.events()
             if event["kind"] == "evicted"][-1]
    print(f"flight event: {event['kind']} {event['client']} "
          f"({event['detail']})")

    # ---- the recovery -----------------------------------------------------
    new_key = clients["c2"].rejoin()
    print(f"\nc2 rejoined as {new_key} through a fresh transport")
    assert len(controller.registry) == 3
    assert all(options[h].value == "DS" for h in options)
    print("back at the threshold; options:",
          {h: options[h].value for h in options})
    print("\nthe rejoined client recovered its pre-crash tuned option (DS)")


if __name__ == "__main__":
    main()

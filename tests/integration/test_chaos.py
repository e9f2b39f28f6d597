"""Chaos suite: seeded fault injection against a no-fault oracle run.

One scenario, run twice:

* **oracle** — three DBclient applications join (the rule policy flips
  everyone to data shipping at three), then one leaves cleanly with
  ``harmony_end`` and later a replacement joins.
* **chaos** — the same traffic, but the middle client's link drops a
  seeded fraction of its sends and is then severed mid-session (a crash).
  Its lease lapses, the controller evicts it, and the client rejoins
  through a fresh transport.

The system state after the crash/eviction and after the rejoin must match
the oracle: same placements, same predictions, same objective — and the
rejoining client must come back to the same tuned option it had before
the crash.  Running the chaos scenario twice with the same seed must
produce byte-identical decisions and fault statistics.
"""

import pytest

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
from tests.conftest import lifecycle_events

HOSTS = ("c1", "c2", "c3")
VICTIM = "c2"


def db_rsl(client_host):
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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


CHAOS_RETRIES = RetryPolicy(request_timeout_seconds=0.05, max_attempts=6,
                            backoff_initial_seconds=0.0)


def run_scenario(faulty, seed=1234):
    """Run the scripted session; returns a comparable summary dict."""
    cluster = Cluster.star("server0", list(HOSTS), memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    clock = FakeClock()
    server = HarmonyServer(controller, lease_seconds=10.0, clock=clock)

    clients, options = {}, {}

    def fresh_link():
        client_end, server_end = connected_pair()
        server.attach(server_end)
        return client_end

    def join(host, lossy=False):
        transport = fresh_link()
        if lossy:
            transport = FaultyTransport(transport, SeededFaultSchedule(
                seed=seed, drop_rate=0.25, directions=frozenset({"send"})))
        client = HarmonyClient(transport, retry_policy=CHAOS_RETRIES,
                               transport_factory=fresh_link)
        client.startup("DBclient")
        client.bundle_setup(db_rsl(host))
        options[host] = client.add_variable(
            "where.option", "QS", VariableType.STRING)
        clients[host] = client
        return client

    join("c1")
    victim = join(VICTIM, lossy=faulty)
    lossy_link = victim.transport if faulty else None
    join("c3")

    # Threshold reached: everyone is on data shipping.
    pre_crash_option = options[VICTIM].consume()

    if faulty:
        victim.transport.sever()  # crash: no harmony_end, no warning
    else:
        victim.end()  # the polite oracle twin

    # Survivors keep beating; the victim's lease (if any) lapses.
    clock.advance(6.0)
    clients["c1"].heartbeat()
    clients["c3"].heartbeat()
    clock.advance(5.0)
    evicted = server.check_leases()

    post_crash = {
        "evicted_count": len(evicted),
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "predictions": controller.predict_all(controller.view),
        "survivor_options": {h: options[h].value for h in ("c1", "c3")},
    }

    # The victim comes back: a crashed client rejoins through a fresh
    # transport; the oracle's clean twin simply starts a new session.
    if faulty:
        rejoined_key = victim.rejoin()
    else:
        rejoined_key = join(VICTIM).app_key

    final = {
        "rejoined_key": rejoined_key,
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "options": {h: options[h].value for h in HOSTS},
        "registry_size": len(controller.registry),
    }
    lifecycle = [(e["kind"], e["client"])
                 for e in lifecycle_events(controller)]
    stats = lossy_link.stats if faulty else None
    return {
        "pre_crash_option": pre_crash_option,
        "post_crash": post_crash,
        "final": final,
        "lifecycle": lifecycle,
        "stats": None if stats is None else {
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "by_type": dict(stats.by_type),
            "severed": stats.severed,
        },
        "victim_retries": victim.retries,
    }


class TestChaosVersusOracle:
    def test_crash_degrades_exactly_like_a_clean_exit(self):
        oracle = run_scenario(faulty=False)
        chaos = run_scenario(faulty=True)

        # Both runs reached data shipping before the departure.
        assert oracle["pre_crash_option"] == "DS"
        assert chaos["pre_crash_option"] == "DS"

        # The crash was detected: exactly one eviction (the oracle's twin
        # left cleanly, so no lease ever lapsed there).
        assert chaos["post_crash"]["evicted_count"] == 1
        assert oracle["post_crash"]["evicted_count"] == 0
        assert ("evicted", "DBclient.2") in chaos["lifecycle"]
        assert ("ended", "DBclient.2") in oracle["lifecycle"]

        # Survivors' placements and predictions match the oracle exactly.
        assert chaos["post_crash"]["system"] == \
            oracle["post_crash"]["system"]
        assert chaos["post_crash"]["survivor_options"] == \
            oracle["post_crash"]["survivor_options"] == \
            {"c1": "QS", "c3": "QS"}
        assert chaos["post_crash"]["objective"] == \
            pytest.approx(oracle["post_crash"]["objective"])
        oracle_pred = oracle["post_crash"]["predictions"]
        chaos_pred = chaos["post_crash"]["predictions"]
        assert sorted(chaos_pred) == sorted(oracle_pred)
        for key, value in oracle_pred.items():
            assert chaos_pred[key] == pytest.approx(value)

    def test_rejoining_client_reaches_its_pre_crash_option(self):
        chaos = run_scenario(faulty=True)
        assert chaos["final"]["registry_size"] == 3
        # Back at threshold: the rejoined client holds the same tuned
        # option it had before the crash, as do the others.
        assert chaos["final"]["options"][VICTIM] == \
            chaos["pre_crash_option"] == "DS"
        assert chaos["final"]["options"] == {h: "DS" for h in HOSTS}

    def test_final_state_matches_oracle_after_rejoin(self):
        oracle = run_scenario(faulty=False)
        chaos = run_scenario(faulty=True)
        assert chaos["final"]["system"] == oracle["final"]["system"]
        assert chaos["final"]["objective"] == \
            pytest.approx(oracle["final"]["objective"])
        assert chaos["final"]["rejoined_key"] == \
            oracle["final"]["rejoined_key"]

    def test_seeded_chaos_is_reproducible_run_to_run(self):
        first = run_scenario(faulty=True, seed=99)
        second = run_scenario(faulty=True, seed=99)
        assert first == second
        # And the faults were real: the schedule actually dropped frames
        # that the retry layer then recovered.
        assert first["stats"]["dropped"] > 0
        assert first["victim_retries"] > 0

    def test_different_seeds_change_the_fault_pattern_not_the_outcome(self):
        runs = [run_scenario(faulty=True, seed=s) for s in (7, 21)]
        assert runs[0]["stats"] != runs[1]["stats"]
        for run in runs:
            assert run["final"]["options"] == {h: "DS" for h in HOSTS}

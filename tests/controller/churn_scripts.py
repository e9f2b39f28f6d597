"""Seeded random churn over small pod clusters, for equivalence suites.

A *script* is plain data — a cluster shape, a friction policy and a list
of operations — drawn from one seed without looking at any controller,
so the same script can be replayed against a fast path and its oracle
and the two compared decision for decision.  Scripts stay at or under
twelve live bundles, the population where the pairwise pass runs, and
mix everything that stamps a host or moves a friction gate:
arrivals and departures in other pods, node failures and restorations,
external load, clock advances against ``granularity``, a rare bundle
with no hostname pattern that joins every pod, and friction tags large
enough for the amortisation gate to matter.  ``link_loads=True`` adds
external link loads to the same script, and makes its first bundle
unscoped: a whole-cluster reach holds no link keys.
"""

import random

from repro.controller import (
    AdaptationController,
    FrictionPolicy,
    ModelDrivenPolicy,
)
from repro.errors import AllocationError
from tests.oracle import unpruned
from tests.pods import build_pod_cluster

MAX_LIVE = 12

#: Binary-exact demands: every contention sum is exact in any order, so
#: predictions must agree to the last bit.
EXACT = {"small": (61.5, 58.0, 64.25), "large": (34.25, 33.0, 36.5),
         "three": (25.5, 24.0, 27.25), "load": (0.25, 0.5, 1.0)}
#: Demands with no finite binary expansion: summed left to right, a
#: prediction's last bit would follow the order its node's consumers were
#: indexed in, which a skipped trial changes.  The sojourn sums are
#: correctly rounded, so predictions must agree to the last bit here too.
INEXACT = {"small": (55.3, 60.1, 58.7), "large": (33.3, 35.9, 34.1),
           "three": (24.7, 26.3, 25.1), "load": (0.3, 0.7, 1.1)}

FRICTIONS = (0, 0, 5, 40, 400)
GRANULARITIES = (0, 0, 20, 100)
#: Bundle memory in MB.  Twelve of the largest still fit one 256 MB
#: node, so memory never binds; ``make_script(memories=...)`` draws
#: from a memory-pressure family instead, where an exchange moves each
#: bundle into space the other one held.
MEMORIES = (8, 16, 20)


def bundle_rsl(rng: random.Random, name: str, pod: int | None,
               demands: dict, memories: tuple = MEMORIES) -> str:
    """A two- or three-option bundle; ``pod=None`` leaves it unscoped."""
    host = f" {{hostname p{pod}n*}}" if pod is not None else ""
    memory = rng.choice(memories)

    def tags() -> str:
        friction, granularity = rng.choice(FRICTIONS), \
            rng.choice(GRANULARITIES)
        return (f" {{friction {friction}}}" if friction else "") + \
            (f" {{granularity {granularity}}}" if granularity else "")

    options = [
        f"{{small {{node n{host} {{seconds {rng.choice(demands['small'])}}}"
        f" {{memory {memory}}}}}{tags()}}}",
        f"{{large {{node n{host} {{seconds {rng.choice(demands['large'])}}}"
        f" {{memory {memory}}} {{replicate 2}}}}"
        f" {{communication 4}}{tags()}}}"]
    if rng.random() < 0.4:
        options.append(
            f"{{three {{node n{host}"
            f" {{seconds {rng.choice(demands['three'])}}}"
            f" {{memory {memory}}} {{replicate 3}}}}"
            f" {{communication 6}}{tags()}}}")
    return f"harmonyBundle {name} size {{\n    " + \
        "\n    ".join(options) + "}\n"


def make_script(seed: int, exact: bool = True, length: int = 36,
                memories: tuple = MEMORIES, link_loads: bool = False) -> dict:
    rng = random.Random(f"churn:{seed}:{exact}")
    demands = EXACT if exact else INEXACT
    pods, nodes = rng.randint(2, 4), rng.randint(3, 5)
    live: list[int] = []        # admission numbers still registered
    failed: list[str] = []
    ops: list[tuple] = []
    admitted = 0

    def admit() -> None:
        nonlocal admitted
        pod = None if rng.random() < 0.04 else rng.randrange(pods)
        if link_loads and admitted == 0:
            pod = None
        name = f"A{admitted}"
        ops.append(("admit", name,
                    bundle_rsl(rng, name, pod, demands, memories)))
        live.append(admitted)
        admitted += 1

    for _ in range(rng.randint(3, 7)):
        admit()
    while len(ops) < length:
        roll = rng.random()
        if roll < 0.30 and len(live) < MAX_LIVE:
            admit()
        elif roll < 0.55 and live:
            ops.append(("end", live.pop(rng.randrange(len(live)))))
        elif roll < 0.63:
            host = f"p{rng.randrange(pods)}n{rng.randrange(nodes)}"
            pod_hosts = [h for h in failed if h.startswith(host[:2])]
            if host not in failed and len(pod_hosts) < nodes - 2:
                failed.append(host)
                ops.append(("fail", host))
        elif roll < 0.68 and failed:
            ops.append(("restore", failed.pop(rng.randrange(len(failed)))))
        elif roll < 0.80:
            host = f"p{rng.randrange(pods)}n{rng.randrange(nodes)}"
            load = rng.choice((0.0,) + demands["load"])
            ops.append(("load", host, load))
        elif roll < 0.92:
            ops.append(("advance", rng.choice((5.0, 30.0, 150.0))))
        else:
            ops.append(("reevaluate",))
    if link_loads:
        # Drawn apart, so the script's other ops stay those of the seed.
        links = random.Random(f"links:{seed}:{exact}")
        loaded = []
        for op in ops:
            loaded.append(op)
            if links.random() < 0.2:
                pod = links.randrange(pods)
                a, b = sorted(links.sample(range(nodes), 2))
                loaded.append(("link", f"p{pod}n{a}", f"p{pod}n{b}",
                               links.choice((0.0, 1.0, 2.0, 4.0))))
        ops = loaded
    return {
        "pods": pods, "nodes": nodes, "ops": ops,
        "amortization_seconds": rng.choice((60.0, 600.0, 6000.0)),
        "min_relative_gain": rng.choice((0.0, 0.001, 0.01, 0.05)),
    }


def run_script(script: dict, pairwise: bool, serial: bool = False,
               prepare=None) -> AdaptationController:
    """Replay ``script``, on the serial oracle when ``serial``;
    ``prepare(controller)`` runs before the first op (a suite's place to
    hang its own checks on the controller)."""
    cluster = build_pod_cluster(script["pods"], script["nodes"])
    controller = AdaptationController(
        cluster, policy=ModelDrivenPolicy(pairwise_exchange=pairwise),
        friction_policy=FrictionPolicy(
            amortization_seconds=script["amortization_seconds"],
            min_relative_gain=script["min_relative_gain"]))
    if serial:
        unpruned(controller)
    if prepare is not None:
        prepare(controller)
    instances = {}
    for op in script["ops"]:
        kind = op[0]
        if kind == "admit":
            instance = controller.register_app(op[1])
            instances[int(op[1][1:])] = instance
            try:
                controller.setup_bundle(instance, op[2])
            except AllocationError:
                pass            # stays registered, unconfigured
        elif kind == "end":
            controller.end_app(instances.pop(op[1]))
        elif kind == "fail":
            controller.handle_node_failure(op[1])
        elif kind == "restore":
            controller.handle_node_restored(op[1])
        elif kind == "load":
            # What update_external_load does for a measured change.
            controller.set_external_cpu_load(op[1], op[2])
            controller.reevaluate()
        elif kind == "link":
            controller.set_external_link_load(op[1], op[2], op[3])
            controller.reevaluate()
        elif kind == "advance":
            cluster.kernel.advance_to(cluster.now + op[1])
            controller.reevaluate()
        else:
            controller.reevaluate()
    return controller

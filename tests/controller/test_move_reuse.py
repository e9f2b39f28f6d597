"""A sweep trial recomputes only what the move changes.

``TrialEngine.move_predictions`` scores one bundle's candidate.  A
co-tenant's prediction is reused from the engine's table when the move
removes and adds the same entries on its hosts and read links as one
scored before, with no commit on its footprint since; and when every
co-tenant is known (none opaque) and the moved bundle's model leaves out
its own entries by app key, the view is not edited at all.  Every test
here holds the result to the scorer that edits the view every time: the
candidates' scores to the from-scratch oracle
(:class:`~tests.oracle.naive.NaiveGreedyOptimizer`), and each record's
reads to those of edited trials (:meth:`TrialEngine.trial_predictions`).

Mutation-checked: a key without the removed entries, an entry kept
across a commit on its co-tenant's host, the unedited path allowed for
an ``ExplicitSpecModel`` bundle and the reads of table-covered
co-tenants left un-noted each fail a test here.
"""

import collections

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from repro.controller.trial import ViewTrial
from repro.prediction.models import CallableModel
from tests.oracle.naive import NaiveGreedyOptimizer

HOSTS = [f"n{i}" for i in range(4)]


def ring_cluster():
    """Four hosts in a ring (so a transfer may cross two links), with
    one chord."""
    cluster = Cluster()
    for host in HOSTS:
        cluster.add_node(host, memory_mb=256.0)
    rows = [(HOSTS[i], HOSTS[(i + 1) % len(HOSTS)], bandwidth, 0.0)
            for i, bandwidth in enumerate((40.0, 20.0, 40.0, 10.0))]
    cluster.add_links([*rows, ("n0", "n2", 30.0, 0.0)])
    return cluster


def flow_rsl(name, seconds):
    """Default model, two nodes and a transfer between them: flows."""
    return (f"harmonyBundle {name} flow {{"
            f"{{near {{node a {{seconds {seconds}}} {{memory 8}}}}"
            f" {{node b {{seconds {seconds + 3}}} {{memory 8}}}}"
            f" {{link a b {seconds // 3}}}}}"
            f" {{lone {{node a {{seconds {2 * seconds}}} {{memory 8}}}}}}}}")


def size_rsl(name, seconds):
    """Default model, the workloads' small/large bundle."""
    return (f"harmonyBundle {name} size {{"
            f"{{small {{node n {{seconds {seconds + 20}}} {{memory 8}}}}}}"
            f" {{large {{node n {{seconds {seconds}}} {{memory 8}}"
            f" {{replicate 2}}}} {{communication 4}}}}}}")


def curve_rsl(name, seconds):
    """An ``ExplicitSpecModel`` curve over the placed node count."""
    return (f"harmonyBundle {name} curve {{"
            f"{{one {{node n {{seconds {seconds}}} {{memory 8}}}}"
            f" {{performance {{1 {seconds}}} {{2 {seconds - 4}}}}}}}"
            f" {{two {{node n {{seconds {seconds}}} {{memory 8}}"
            f" {{replicate 2}}}} {{performance {{1 {seconds}}}"
            f" {{2 {seconds - 4}}}}}}}}}")


def formula_rsl(name, seconds):
    """An ``ExpressionSpecModel`` over the placed node count."""
    return (f"harmonyBundle {name} formula {{"
            f"{{one {{node n {{seconds {seconds}}} {{memory 8}}}}"
            f" {{performance {{{seconds} + 6 / nodes}}}}}}"
            f" {{two {{node n {{seconds {seconds}}} {{memory 8}}"
            f" {{replicate 2}}}} {{performance {{{seconds - 5} + 6 / nodes}}}}}}}}")


def two_bundle_rsls(name):
    """Two bundles of one app, sharing its one slot in the view."""
    return (f"harmonyBundle {name} where {{"
            f"{{onA {{node n {{hostname n1}} {{seconds 10}} {{memory 8}}}}}}"
            f" {{onB {{node n {{hostname n3}} {{seconds 14}} {{memory 8}}}}}}}}",
            f"harmonyBundle {name} algorithm {{"
            f"{{table {{node n {{hostname n1}} {{seconds 4}} {{memory 8}}}}}}"
            f" {{search {{node n {{hostname n3}} {{seconds 9}} {{memory 8}}}}}}}}")


def global_load(demands, assignment, view):
    """An opaque model: it reads every host's consumers."""
    return 5.0 + sum(view.cpu_consumers(host) for host in HOSTS)


def edited_reads(controller, instance, candidates):
    """The hosts and links edited trials of ``candidates`` read: each
    placed on the view, its dirty set predicted, and rolled back."""
    engine = controller._engine
    view = controller.view
    placed = view.configuration_of(instance.key)
    live = engine.live_predictions()
    with engine.reading() as reads:
        for candidate in candidates:
            if placed is not None and candidate.demands == placed.demands \
                    and candidate.assignment == placed.assignment:
                continue
            with ViewTrial(view) as trial:
                trial.place(instance.key, candidate.demands,
                            candidate.assignment)
                engine.trial_predictions(live, trial.tokens)
    return frozenset(reads)


def scores(result):
    return [(c.option_name, c.objective_value, c.predicted_seconds)
            for c in result.evaluated]


def checked(controller):
    """Hold every ``optimize_bundle`` call of ``controller`` to the
    from-scratch oracle and its record to the edited trials' reads;
    returns the list of calls checked."""
    optimizer = controller.policy.optimizer
    product = optimizer.optimize_bundle
    oracle = NaiveGreedyOptimizer()
    calls = []

    def optimize_bundle(instance, state, context):
        expected = oracle.optimize_bundle(instance, state, context)
        result = product(instance, state, context)
        assert result.current_objective == expected.current_objective
        assert scores(result) == scores(expected)
        assert result.reads.keys == edited_reads(
            controller, instance, result.evaluated)
        calls.append(instance.key)
        return result

    optimizer.optimize_bundle = optimize_bundle
    return calls


def count_edits(controller):
    """Counter of the moves scored, and of those that edited the view."""
    counts = collections.Counter()
    engine = controller._engine
    move = engine.move_predictions

    def counting(base, app_key, demands, assignment):
        place = controller.view.place

        def placing(*args):
            counts["edited"] += 1
            return place(*args)

        counts["moves"] += 1
        controller.view.place = placing
        try:
            return move(base, app_key, demands, assignment)
        finally:
            del controller.view.place

    engine.move_predictions = counting
    return counts


def rescore(controller, times=2):
    """Score every configured bundle ``times`` over, nothing applied: the
    second time, every co-tenant a move touches is in the table."""
    optimizer = controller.policy.optimizer
    for _ in range(times):
        for instance in controller.registry.instances():
            for state in instance.bundles.values():
                if state.chosen is not None:
                    optimizer.optimize_bundle(
                        instance, state, controller.optimization_context())


# -- the property ------------------------------------------------------------

#: Shape -> the RSL of a one-bundle app of that shape; "opaque" is then
#: predicted by ``global_load``, and "pair" is ``two_bundle_rsls``.
SHAPES = {"flow": flow_rsl, "size": size_rsl, "curve": curve_rsl,
          "formula": formula_rsl, "opaque": size_rsl, "pair": None}

admissions = st.tuples(st.just("admit"), st.sampled_from(sorted(SHAPES)),
                       st.sampled_from((21, 24, 30, 33)))
steps = st.one_of(
    admissions, admissions,
    st.tuples(st.just("end"), st.integers(0, 7)),
    st.tuples(st.just("cpu"), st.sampled_from(HOSTS),
              st.sampled_from((0.0, 0.5, 2.0))),
    st.tuples(st.just("link"), st.integers(0, 3),
              st.sampled_from((0.0, 1.0, 3.0))),
    st.tuples(st.just("rescore")))


def play(controller, script):
    """Apply ``script`` to ``controller``: admissions (one two-bundle
    app and one opaque app at most), departures, external CPU and link
    loads, and rescoring rounds."""
    live = []
    admitted = set()
    for index, step in enumerate(script):
        kind = step[0]
        if kind == "admit":
            _, shape, seconds = step
            if shape in ("pair", "opaque") and shape in admitted:
                continue
            admitted.add(shape)
            instance = controller.register_app(f"A{index}")
            if shape == "pair":
                for rsl in two_bundle_rsls(f"A{index}"):
                    controller.setup_bundle(instance, rsl)
            else:
                controller.setup_bundle(
                    instance, SHAPES[shape](f"A{index}", seconds))
                if shape == "opaque":
                    controller.register_model(
                        instance, "size", CallableModel(global_load))
                    controller.reevaluate()
            live.append(instance)
        elif kind == "end":
            if live:
                controller.end_app(live.pop(step[1] % len(live)))
        elif kind == "cpu":
            controller.set_external_cpu_load(step[1], step[2])
            controller.reevaluate()
        elif kind == "link":
            link = list(controller.cluster.links())[step[1]]
            controller.set_external_link_load(link.host_a, link.host_b,
                                              step[2])
            controller.reevaluate()
        else:
            rescore(controller)
    rescore(controller)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(steps, min_size=4, max_size=14),
       st.booleans())
def test_every_scored_candidate_equals_the_oracle_and_reads_as_edited(
        script, pairwise):
    controller = AdaptationController(
        ring_cluster(), policy=ModelDrivenPolicy(pairwise_exchange=pairwise))
    calls = checked(controller)
    play(controller, script)
    assert calls or not controller.registry.instances()


# -- one way each, on pinned bundles -----------------------------------------

def pinned(name, seconds, *hosts):
    """One option per host (``on<HOST>``), a single demand pinned there;
    ``seconds`` is one value or one per host."""
    if not isinstance(seconds, tuple):
        seconds = (seconds,) * len(hosts)
    options = " ".join(
        f"{{on{host.upper()} {{node x {{hostname {host}}} "
        f"{{seconds {each}}} {{memory 8}}}}}}"
        for host, each in zip(hosts, seconds))
    return f"harmonyBundle {name} where {{ {options} }}"


def spanning(name, seconds, first, second):
    """One option over two pinned hosts: it reads both."""
    return (f"harmonyBundle {name} where {{{{span"
            f" {{node x {{hostname {first}}} {{seconds {seconds}}} {{memory 8}}}}"
            f" {{node y {{hostname {second}}} {{seconds {seconds}}}"
            f" {{memory 8}}}}}}}}")


def pinned_curve(name, *hosts):
    """Like :func:`pinned`, predicted by an ``ExplicitSpecModel`` curve."""
    options = " ".join(
        f"{{on{host.upper()} {{node x {{hostname {host}}} {{seconds 10}}"
        f" {{memory 8}}}} {{performance {{1 10}} {{2 8}}}}}}"
        for host in hosts)
    return f"harmonyBundle {name} where {{ {options} }}"


def pinned_scene(*apps):
    """A controller with no pairwise pass, every call checked, and the
    apps ``(name, rsl)`` admitted in order; returns it, its checked
    calls and the instances by name."""
    controller = AdaptationController(
        ring_cluster(), policy=ModelDrivenPolicy(pairwise_exchange=False))
    calls = checked(controller)
    instances = {}
    for name, rsl in apps:
        instances[name] = controller.register_app(name)
        controller.setup_bundle(instances[name], rsl)
    return controller, calls, instances


def option_of(instance):
    return next(iter(instance.bundles.values())).chosen.option_name


def score(controller, instance):
    state = next(iter(instance.bundles.values()))
    return controller.policy.optimizer.optimize_bundle(
        instance, state, controller.optimization_context())


def test_a_covered_move_edits_nothing_and_notes_its_cotenants_reads():
    """The second scoring of a bundle finds every co-tenant its moves
    touch in the table: no trial edits the view, and the record still
    notes the far host the spanning co-tenant reads."""
    controller, calls, apps = pinned_scene(
        ("Spanner", spanning("Spanner", 10, "n0", "n3")),
        ("Mover", pinned("Mover", (10, 12, 30), "n0", "n1", "n2")))
    assert option_of(apps["Mover"]) == "onN1"
    controller._engine.invalidate()         # the admissions' entries go
    counts = count_edits(controller)
    first = score(controller, apps["Mover"])
    assert counts == {"moves": 2, "edited": 1}
    counts.clear()
    second = score(controller, apps["Mover"])
    assert counts == {"moves": 2}
    assert scores(second) == scores(first)
    assert "n3" in second.reads.keys
    assert calls[-2:] == [apps["Mover"].key] * 2


def test_the_key_names_the_entries_a_move_removes():
    """Two bundles leaving the host a third shares leave it different
    loads: the third's prediction under one departure is not the other's."""
    controller, calls, apps = pinned_scene(
        ("Stay", pinned("Stay", 10, "n0")),
        ("Short", pinned("Short", (5, 50), "n0", "n1")),
        ("Long", pinned("Long", (6, 60), "n0", "n2")))
    assert option_of(apps["Short"]) == option_of(apps["Long"]) == "onN0"
    for name in ("Short", "Long", "Short", "Long"):
        score(controller, apps[name])
    assert calls[-4:] == [apps[name].key
                          for name in ("Short", "Long", "Short", "Long")]


def test_an_entry_goes_when_a_commit_writes_its_cotenants_host():
    """A commit on the host a co-tenant computes on (here an external
    load, which no sweep follows) changes what it predicts under every
    move: its table entries go."""
    controller, calls, apps = pinned_scene(
        ("Stay", pinned("Stay", 10, "n0")),
        ("Mover", pinned("Mover", (5, 50), "n0", "n1")))
    score(controller, apps["Mover"])
    controller.set_external_cpu_load("n0", 2.0)
    counts = count_edits(controller)
    score(controller, apps["Mover"])
    assert counts == {"moves": 1, "edited": 1}
    assert calls[-2:] == [apps["Mover"].key] * 2


def test_an_explicit_model_bundle_always_takes_the_edited_trial():
    """``contention_stretch`` counts the bundle itself among a host's
    consumers, so its own old entries would count against the live view:
    the moves of an ``ExplicitSpecModel`` bundle edit the view even when
    every co-tenant is in the table."""
    controller, calls, apps = pinned_scene(
        ("Stay", pinned("Stay", 10, "n1")),
        ("Curve", pinned_curve("Curve", "n0", "n1")))
    assert option_of(apps["Curve"]) == "onN0"
    score(controller, apps["Curve"])
    counts = count_edits(controller)
    score(controller, apps["Curve"])
    assert counts == {"moves": 1, "edited": 1}


def test_a_departure_keeps_a_removal_past_the_arrival_after_it():
    """Churn on a mesh, each op a departure and an arrival.  A departure's
    sweep trials bundles onto the hosts it freed, so it stores their
    co-tenants' predictions with each bundle removed; the arrival commits
    elsewhere, and a later sweep reuses those removals.  Every call
    equals the oracle."""
    controller = AdaptationController(Cluster.full_mesh(
        [f"m{i}" for i in range(8)], memory_mb=256.0))
    checked(controller)
    engine = controller._engine
    op = [None]
    stored, reused = {}, []
    store, lookup = engine._reuse_store, engine._reused

    def storing(app_key, key, value):
        stored[app_key, key] = op[0]
        store(app_key, key, value)

    def looking(app_key, key):
        value = lookup(app_key, key)
        if value is not None:
            reused.append((op[0], stored[app_key, key], key))
        return value

    engine._reuse_store, engine._reused = storing, looking
    live = collections.deque()
    for index in range(18):
        if index >= 12:
            op[0] = ("departure", index)
            controller.end_app(live.popleft())
            op[0] = ("arrival", index)
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(
            instance, size_rsl(f"App{index}", (33, 35, 37)[index % 3]))
        live.append(instance)
    removals = [(now, made) for now, made, key in reused
                if made is not None and made[0] == "departure"
                and now[1] > made[1]
                and all(added is None for _, _, added in key)]
    assert removals

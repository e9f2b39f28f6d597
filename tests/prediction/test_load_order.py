"""The view's maintained load order against the sort it replaces.

``SystemView.load_order`` is what first-fit matching walks on the fast
path; ``load_order_key`` is the from-scratch key the test-side oracle
(``tests.oracle.naive``) sorts by.  Whatever sequence of mutations a view has been through —
placements, removals, nested trials rolled back, external-load
measurements, cluster growth — the two must agree exactly, ties included,
for the whole cluster and for a hostname-pattern subset, with and without
an excluded application.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.allocation import Matcher, MatchStrategy
from repro.allocation.instantiate import (
    ConcreteDemands, LinkDemand, NodeDemand)
from repro.allocation.matcher import Assignment, MatchPreparation
from repro.cluster import Cluster
from repro.controller import ViewTrial
from repro.prediction import SystemView
from tests.oracle.naive import load_order_key, sorted_preparation

APPS = ("app0", "app1", "app2")
HOSTS = 5           # initial size; "add_node" grows it mid-sequence
SPEEDS = (0.5, 1.0, 2.0)
LOADS = (0.0, 0.1, 0.3, 0.7, 1.0, 2.5)   # fractional: ties are float ties


def hostname(index: int) -> str:
    return f"{'ab'[index % 2]}{index}"     # a0 b1 a2 b3 ...: "a*" is a subset


def build_cluster(topology: str, speeds) -> Cluster:
    """``Cluster.star`` / ``Cluster.full_mesh`` with per-node speeds."""
    cluster = Cluster()
    names = [hostname(i) for i in range(len(speeds))]
    for name, speed in zip(names, speeds):
        cluster.add_node(name, speed=speed, memory_mb=64.0)
    for i, a in enumerate(names):
        for b in names[i + 1:] if topology == "full_mesh" or i == 0 else ():
            cluster.add_link(a, b, 40.0)
    return cluster


def configuration(seconds, hosts):
    """Demands and assignment placing one CPU demand per host given."""
    names = [f"d{i}" for i in range(len(hosts))]
    demands = ConcreteDemands(
        option_name="o",
        nodes=tuple(NodeDemand(local_name=name, seconds=value)
                    for name, value in zip(names, seconds)),
        links=(LinkDemand(names[0], names[-1], 4.0),)
        if len(names) > 1 else ())
    return demands, Assignment(dict(zip(names, hosts)))


def assert_order_matches_sort(view: SystemView) -> None:
    nodes = list(view.cluster.nodes())
    subset = [node for node in nodes if node.hostname.startswith("a")]
    for excluded in (None,) + APPS:
        key = load_order_key(
            view, exclude_apps=(excluded,) if excluded else ())

        def names(ordered):
            return [node.hostname for node in ordered]

        def by_sort(base):
            return names(sorted(base, key=lambda n: key(n.hostname)))

        assert names(view.load_order(exclude_app=excluded)) == by_sort(nodes)
        assert names(view.load_order(subset, exclude_app=excluded)) \
            == by_sort(subset)
        # A subset handed over in another (strategy) order stays stable.
        assert names(view.load_order(subset[::-1], exclude_app=excluded)) \
            == by_sort(subset[::-1])


host_indexes = st.integers(min_value=0, max_value=HOSTS - 1)
seconds_values = st.sampled_from([0.0, 1.5, 4.0, 9.25])
operations = st.one_of(
    st.tuples(st.just("place"), st.sampled_from(APPS),
              st.lists(st.tuples(seconds_values, host_indexes),
                       min_size=1, max_size=3)),
    st.tuples(st.just("remove"), st.sampled_from(APPS)),
    st.tuples(st.just("external"), host_indexes, st.sampled_from(LOADS)),
    st.tuples(st.just("clear_external")),
    st.tuples(st.just("open_trial")),
    st.tuples(st.just("close_trial")),
    st.tuples(st.just("add_node"), st.sampled_from(SPEEDS)),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["star", "full_mesh"]),
       st.lists(st.sampled_from(SPEEDS), min_size=HOSTS, max_size=HOSTS),
       st.lists(operations, max_size=30))
def test_maintained_order_equals_sorted_order(topology, speeds, ops):
    cluster = build_cluster(topology, speeds)
    view = SystemView(cluster)
    trials: list[ViewTrial] = []
    assert_order_matches_sort(view)
    for op in ops:
        target = trials[-1] if trials else view
        if op[0] == "place":
            seconds, hosts = zip(*op[2])
            target.place(op[1], *configuration(
                seconds, [hostname(i) for i in hosts]))
        elif op[0] == "remove":
            target.remove(op[1])
        elif op[0] == "external":
            view.set_external_cpu_load(hostname(op[1]), op[2])
        elif op[0] == "clear_external":
            view.clear_external_load()
        elif op[0] == "open_trial":
            trials.append(ViewTrial(view))
        elif op[0] == "close_trial" and trials:
            trials.pop().rollback()
        elif op[0] == "add_node" and not trials:
            # Trials assume a fixed topology; clusters grow between them.
            added = cluster.add_node(
                hostname(len(cluster.hostnames())), speed=op[1],
                memory_mb=64.0)
            cluster.add_link(hostname(0), added.hostname, 40.0)
        assert_order_matches_sort(view)
    while trials:
        trials.pop().rollback()
        assert_order_matches_sort(view)
    assert_order_matches_sort(view.copy())


def test_one_version_names_many_trial_states(small_cluster):
    """``restore`` rewinds ``version``, so every first-level trial runs at
    the same number: an order cached under it would serve the first
    trial's answer to the second."""
    view = SystemView(small_cluster)
    view.place("resident", *configuration([5.0], ["n0"]))

    def order():
        assert_order_matches_sort(view)
        return [node.hostname for node in view.load_order()]

    before = order()
    assert before == ["n1", "n2", "n3", "n0"]
    seen = {}
    for host in ("n1", "n2"):
        with ViewTrial(view) as trial:
            trial.place("newcomer", *configuration([3.0], [host]))
            seen[host] = (view.version, order())
        assert order() == before
    assert seen["n1"][0] == seen["n2"][0]       # same version ...
    assert seen["n1"][1] == ["n2", "n3", "n0", "n1"]
    assert seen["n2"][1] == ["n1", "n3", "n0", "n2"]    # ... own order


def test_excluded_app_keeps_fractional_load_ties(small_cluster):
    """``(1 + 0.1) - 1`` is not ``(1 - 1) + 0.1`` in floating point: the
    exclusion must be subtracted from the integer count, or a host the
    application computes on loses a tie it should win by position."""
    view = SystemView(small_cluster)
    for host in ("n0", "n1", "n2", "n3"):
        view.set_external_cpu_load(host, 0.1)
    view.place("app0", *configuration([5.0], ["n1"]))
    assert [n.hostname for n in view.load_order(exclude_app="app0")] \
        == ["n0", "n1", "n2", "n3"]
    assert_order_matches_sort(view)


def test_best_and_worst_fit_keep_their_order_under_a_load_order():
    """Strategy order (free memory) still breaks load ties when the load
    order comes from the view instead of a from-scratch sort."""
    cluster = Cluster()
    for index, memory in enumerate([64.0, 256.0, 128.0, 32.0, 96.0]):
        cluster.add_node(f"n{index}", memory_mb=memory,
                         speed=2.0 if index == 3 else 1.0)
    names = cluster.hostnames()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            cluster.add_link(a, b, 40.0)
    view = SystemView(cluster)
    view.place("resident", *configuration([5.0, 5.0], ["n1", "n4"]))
    view.set_external_cpu_load("n2", 0.5)
    # One demand per node: the assignment spells out the whole order.
    everywhere = ConcreteDemands(option_name="o", nodes=tuple(
        NodeDemand(local_name=f"d{i}", seconds=1.0, memory_min_mb=8.0)
        for i in range(len(names))))
    orders = {}
    for strategy in MatchStrategy:
        matcher = Matcher(cluster, strategy=strategy)
        for excluded in (None, "resident"):
            maintained = matcher.match(everywhere, prepared=MatchPreparation(
                load_order=partial(view.load_order, exclude_app=excluded)))
            sorted_ = matcher.match(everywhere, prepared=sorted_preparation(
                cluster, load_order_key(
                    view, exclude_apps=(excluded,) if excluded else ())))
            assert maintained == sorted_
            orders[strategy, excluded] = list(
                maintained.placements.values())
    assert orders[MatchStrategy.FIRST_FIT, None] == \
        ["n3", "n0", "n2", "n1", "n4"]
    assert orders[MatchStrategy.BEST_FIT, "resident"] == \
        ["n3", "n0", "n4", "n1", "n2"]
    assert orders[MatchStrategy.WORST_FIT, "resident"] == \
        ["n3", "n1", "n4", "n0", "n2"]

"""A view compiles footprints through its hop table; a cold view must agree.

``SystemView`` keeps the hops of every host pair it has compiled, and
every host's speed, for the current topology, and drops both when the
cluster tells it the graph changed.  So a footprint compiled through a
warm table must equal the one a fresh view compiles from the cluster,
field by field: after nodes join, after a batch of links reroutes a
path, and for demands on unknown or disconnected hosts (whose faults
the table never keeps).

Mutation-checked: a table not dropped in ``topology_changed`` fails
``test_a_link_batch_that_reroutes_a_path``.
"""

from hypothesis import given, settings, strategies as st

from repro.allocation.instantiate import (
    ConcreteDemands, LinkDemand, NodeDemand)
from repro.allocation.matcher import Assignment
from repro.cluster import Cluster
from repro.prediction import SystemView
from tests.prediction.test_models import (
    BANDWIDTHS, LATENCIES, SHAPES, SPEEDS, configurations, shaped_cluster)

FIELDS = ("cpu", "cpu_rows", "comm_hops", "read_links", "flows",
          "link_rows", "fault")


def assert_compiles_cold(view: SystemView, demands, assignment) -> None:
    """``view``'s compile of a configuration equals a fresh view's."""
    warm = view.compiled(demands, assignment)
    cold = SystemView(view.cluster).compiled(demands, assignment)
    assert {name: getattr(warm, name) for name in FIELDS} == \
        {name: getattr(cold, name) for name in FIELDS}


def spanning(*hosts, communication=2.0):
    """One CPU demand per host, a transfer from the first to the last,
    and general communication among all of them."""
    names = [f"p{i}" for i in range(len(hosts))]
    demands = ConcreteDemands(
        "o", nodes=tuple(NodeDemand(name, seconds=1.0 + i)
                         for i, name in enumerate(names)),
        links=(LinkDemand(names[0], names[-1], 3.0),),
        communication_mb=communication)
    return demands, Assignment(dict(zip(names, hosts)))


def line(*hosts):
    cluster = Cluster()
    for index, host in enumerate(hosts):
        cluster.add_node(host, speed=1.0 + index)
    cluster.add_links((a, b, 10.0, 0.01) for a, b in zip(hosts, hosts[1:]))
    return cluster


def test_a_link_batch_that_reroutes_a_path():
    """a-b-c-d: a's transfer to c crosses two links, and to d three,
    until one batch adds a-c and b-d."""
    cluster = line("a", "b", "c", "d")
    view = SystemView(cluster)
    assert len(view.compiled(*spanning("a", "c")).link_rows[0][1]) == 2
    assert len(view.compiled(*spanning("a", "d")).link_rows[0][1]) == 3
    cluster.add_links([("a", "c", 5.0, 0.005), ("b", "d", 40.0, 0.0)])
    assert view.compiled(*spanning("a", "c")).link_rows[0][1] == (
        (frozenset(("a", "c")), 5.0, 0.005),)
    assert len(view.compiled(*spanning("a", "d")).link_rows[0][1]) == 2
    for hosts in (("a", "c"), ("a", "d"), ("d", "b", "a"), ("c", "a", "d")):
        assert_compiles_cold(view, *spanning(*hosts))


def test_a_node_that_joins_and_then_links():
    """A host unknown to the cluster, then known but disconnected, then
    linked: each compile equals a cold one, and a fault is never kept."""
    cluster = line("a", "b")
    view = SystemView(cluster)
    for _ in range(2):      # the second compile would read a kept fault
        assert_compiles_cold(view, *spanning("a", "z"))
    assert view.compiled(*spanning("a", "z")).fault is not None
    cluster.add_node("z", speed=3.0)
    for _ in range(2):
        assert_compiles_cold(view, *spanning("a", "z"))
    assert view.compiled(*spanning("a", "z")).fault is not None
    cluster.add_link("b", "z", 20.0, 0.0)
    assert_compiles_cold(view, *spanning("a", "z"))
    assert view.compiled(*spanning("a", "z")).fault is None
    assert_compiles_cold(view, *spanning("z", "a", "b"))


def test_the_table_holds_only_pairs_of_cluster_hosts():
    cluster = line("a", "b", "c")
    cluster.add_node("lone")
    view = SystemView(cluster)
    for hosts in (("a", "c"), ("c", "a"), ("a", "lone"), ("b", "ghost"),
                  ("ghost", "lone"), ("a", "b", "c")):
        assert_compiles_cold(view, *spanning(*hosts))
    hosts = set(cluster.hostnames())
    assert view._pair_hops
    assert all(a in hosts and b in hosts and a != b
               for a, b in view._pair_hops)
    assert ("a", "lone") not in view._pair_hops
    assert set(view._speeds) <= hosts


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_warm_compiles_equal_cold_ones_as_the_cluster_grows(data):
    speeds = data.draw(st.lists(st.sampled_from(SPEEDS), min_size=3,
                                max_size=5))
    hops = data.draw(st.lists(st.tuples(st.sampled_from(BANDWIDTHS),
                                        st.sampled_from(LATENCIES)),
                              min_size=1, max_size=3))
    cluster = shaped_cluster(data.draw(st.sampled_from(SHAPES)), speeds,
                             hops, isolated=1)
    view = SystemView(cluster)
    for _ in range(data.draw(st.integers(1, 4))):
        hosts = cluster.hostnames() + ["ghost"]
        for _ in range(3):
            assert_compiles_cold(view, *data.draw(
                configurations(hosts, unplaced=True)))
        growth = data.draw(st.sampled_from(("node", "links", "none")))
        names = cluster.hostnames()
        if growth == "node":
            cluster.add_node(f"x{len(names)}",
                             speed=data.draw(st.sampled_from(SPEEDS)))
        elif growth == "links":
            # One batch joining pairs not yet linked (shortcuts reroute).
            pairs = [(a, b) for i, a in enumerate(names)
                     for b in names[i + 1:]
                     if cluster.link_between(a, b) is None]
            chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                        max_size=3)) if pairs else []
            if chosen:
                cluster.add_links((a, b, *data.draw(st.sampled_from(hops)))
                                  for a, b in chosen)

"""Property-based soundness of the matcher.

Whatever random cluster and demands we throw at it, any assignment the
matcher returns must actually satisfy every constraint it was given —
distinct nodes, hostname patterns, OS filters, memory floors, and link
reachability.  (Completeness — finding a placement whenever one exists —
is guaranteed by the backtracking search; a spot-check for that is
included with a constructive witness.)
"""

import fnmatch
import math

from hypothesis import given, settings, strategies as st

from repro.allocation import Matcher, MatchStrategy, instantiate_option
from repro.allocation.matcher import Assignment, MatchPreparation
from repro.cluster import Cluster
from repro.errors import AllocationError
from repro.rsl import build_bundle
from tests.oracle.naive import sorted_preparation

node_specs = st.lists(
    st.tuples(
        st.integers(min_value=16, max_value=256),   # memory
        st.sampled_from(["linux", "aix"]),          # os
    ),
    min_size=1, max_size=6)

demand_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=128),    # memory needed
        st.sampled_from([None, "linux", "aix"]),    # os filter
    ),
    min_size=1, max_size=4)


def build_cluster(specs):
    cluster = Cluster()
    for index, (memory, os_name) in enumerate(specs):
        cluster.add_node(f"h{index}", memory_mb=float(memory), os=os_name)
    hostnames = cluster.hostnames()
    for i, a in enumerate(hostnames):
        for b in hostnames[i + 1:]:
            cluster.add_link(a, b, 40.0)
    return cluster


def build_demands(specs):
    parts = []
    for index, (memory, os_name) in enumerate(specs):
        os_clause = f" {{os {os_name}}}" if os_name else ""
        parts.append(f"{{node d{index}{os_clause} "
                     f"{{seconds 5}} {{memory {memory}}}}}")
    rsl = "harmonyBundle A b {{o " + " ".join(parts) + "}}"
    return instantiate_option(build_bundle(rsl).option_named("o"))


@settings(max_examples=120, deadline=None)
@given(node_specs, demand_specs,
       st.sampled_from(list(MatchStrategy)))
def test_returned_assignments_satisfy_all_constraints(nodes, demands_in,
                                                      strategy):
    cluster = build_cluster(nodes)
    demands = build_demands(demands_in)
    matcher = Matcher(cluster, strategy=strategy)
    try:
        assignment = matcher.match(demands)
    except AllocationError:
        return  # nothing to check; soundness only

    # Distinct machines for distinct demands (paper semantics).
    assert len(assignment.hostnames()) == len(demands.nodes)
    claimed: dict[str, float] = {}
    for demand in demands.nodes:
        hostname = assignment.hostname_of(demand.local_name)
        node = cluster.node(hostname)
        if demand.os is not None:
            assert node.os == demand.os
        claimed[hostname] = claimed.get(hostname, 0.0) \
            + demand.memory_min_mb
    for hostname, needed in claimed.items():
        assert cluster.node(hostname).memory.available_mb + 1e-9 >= needed


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_feasibility_is_decided_exactly_for_uniform_demands(node_count,
                                                            replicas):
    """With identical nodes and identical demands, feasibility is exactly
    ``replicas <= node_count`` — the matcher must agree in both directions."""
    cluster = build_cluster([(64, "linux")] * node_count)
    rsl = (f"harmonyBundle A b {{{{o {{node w {{seconds 1}} {{memory 32}} "
           f"{{replicate {replicas}}}}}}}}}")
    demands = instantiate_option(build_bundle(rsl).option_named("o"))
    matcher = Matcher(cluster)
    if replicas <= node_count:
        assignment = matcher.match(demands)
        assert len(assignment) == replicas
    else:
        try:
            matcher.match(demands)
        except AllocationError:
            pass
        else:
            raise AssertionError("matched more replicas than nodes")


@settings(max_examples=60, deadline=None)
@given(node_specs)
def test_order_key_permutation_does_not_change_feasibility(nodes):
    """Reordering candidates (the load-aware hook) may change *which*
    placement is returned but never whether one is found."""
    cluster = build_cluster(nodes)
    demands = build_demands([(16, None), (16, None)])
    matcher = Matcher(cluster)

    def outcome(order_key):
        try:
            prepared = (None if order_key is None
                        else sorted_preparation(cluster, order_key))
            return ("ok", len(matcher.match(demands, prepared=prepared)))
        except AllocationError:
            return ("fail", 0)

    natural = outcome(None)
    reversed_order = outcome(lambda hostname: -int(hostname[1:]))
    assert natural[0] == reversed_order[0]


# -- the lazy candidate walk against the eager filter it replaced ----------

class EagerMatcher(Matcher):
    """The list-building search the lazy walk replaced, as the reference:
    free memory for every reachable node up front, the whole order sorted
    per call, and each demand's feasible nodes materialised before the
    first is tried."""

    def match(self, demands, extra_memory=None, ignore_holders=None,
              order_key=None):
        ignore = frozenset(ignore_holders or ())
        base = [node for node in self.cluster.nodes()
                if any(fnmatch.fnmatchcase(node.hostname, d.hostname_pattern)
                       for d in demands.nodes)]
        self._eager_free = {}
        for node in base:
            self._eager_free[node.hostname] = node.memory.available_mb \
                + sum(node.memory.held_by(holder) for holder in ignore)
        if self.strategy is MatchStrategy.BEST_FIT:
            base.sort(key=lambda n: self._eager_free[n.hostname])
        elif self.strategy is MatchStrategy.WORST_FIT:
            base.sort(key=lambda n: -self._eager_free[n.hostname])
        if order_key is not None:
            base.sort(key=lambda n: order_key(n.hostname))
        self._eager_order = base
        placements = {}
        if self._search(list(demands.nodes), demands, placements,
                        extra_memory or {}):
            return Assignment(placements=dict(placements))
        raise AllocationError("no feasible placement")

    def _candidates(self, demand, placements, extra_memory):
        needed_mb = demand.memory_min_mb + extra_memory.get(
            demand.local_name, 0.0)
        taken = set(placements.values())
        return [
            node for node in self._eager_order
            if node.available
            and node.hostname not in taken
            and fnmatch.fnmatchcase(node.hostname, demand.hostname_pattern)
            and (demand.os is None or node.os == demand.os)
            and self._eager_free[node.hostname] + 1e-9 >= needed_mb]


def placements_of(matcher, demands, **kwargs):
    try:
        return dict(matcher.match(demands, **kwargs).placements)
    except AllocationError:
        return None


def build_linked_demands(specs, links):
    parts = [f"{{node d{index} {{seconds 5}} {{memory {memory}}}}}"
             for index, memory in enumerate(specs)]
    parts += [f"{{link d{a} d{b} 4}}" for a, b in sorted(links)
              if a < b < len(specs)]
    rsl = "harmonyBundle A b {{o " + " ".join(parts) + "}}"
    return instantiate_option(build_bundle(rsl).option_named("o"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([32, 64, 256]), min_size=2, max_size=6),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),  # cluster links
    st.sets(st.integers(0, 5)),                                # failed nodes
    st.lists(st.sampled_from([8, 48, 200]), min_size=1, max_size=4),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))),  # link demands
    st.sampled_from(list(MatchStrategy)),
    st.one_of(st.none(), st.permutations(range(6))),           # order key
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from([16, 40])),
             max_size=4))                                      # reservations
def test_lazy_walk_matches_eager_reference(memories, links, failed,
                                           needs, link_demands, strategy,
                                           ranks, reservations):
    """Backtracking included: sparse links make first picks infeasible,
    big demands compete for the one big node, failed nodes head the
    order — the lazy walk must return the eager search's assignment."""
    cluster = Cluster()
    for index, memory in enumerate(memories):
        cluster.add_node(f"h{index}", memory_mb=float(memory))
    for a, b in sorted(links):
        if a < b < len(memories):
            cluster.add_link(f"h{a}", f"h{b}", 40.0)
    for index in failed:
        if index < len(memories):
            cluster.node(f"h{index}").fail()
    for index, amount in reservations:
        if index < len(memories):
            memory = cluster.node(f"h{index}").memory
            if amount <= memory.available_mb:
                memory.reserve("own" if amount == 16 else "other", amount)
    demands = build_linked_demands(needs, link_demands)
    order_key = None
    if ranks is not None:
        def order_key(hostname):
            return ranks[int(hostname[1:])] // 2
    prepared = (None if order_key is None
                else sorted_preparation(cluster, order_key, {"own"}))
    assert placements_of(Matcher(cluster, strategy=strategy), demands,
                         ignore_holders={"own"}, prepared=prepared) \
        == placements_of(EagerMatcher(cluster, strategy=strategy), demands,
                         ignore_holders={"own"}, order_key=order_key)


def test_lazy_walk_backtracks_like_the_eager_search():
    """The three traps by name, each checked to really force a backtrack."""
    # A first pick made infeasible by a link demand: h0 heads the order
    # but is cut off from everyone, so d0 must move off it.
    cluster = Cluster()
    for index in range(4):
        cluster.add_node(f"h{index}", memory_mb=64.0)
    cluster.add_link("h1", "h2", 40.0)
    cluster.add_link("h2", "h3", 40.0)
    linked = build_linked_demands([8, 8], {(0, 1)})
    assert placements_of(Matcher(cluster), linked) == {"d0": "h1", "d1": "h2"} \
        == placements_of(EagerMatcher(cluster), linked)

    # Distinct-machine demands competing for the same best node: d0 fits
    # anywhere and would take h0, the only node d1 fits on.
    cluster = build_cluster([(256, "linux"), (64, "linux"), (64, "linux")])
    competing = build_linked_demands([8, 200], set())
    assert placements_of(Matcher(cluster), competing) == {"d0": "h1", "d1": "h0"} \
        == placements_of(EagerMatcher(cluster), competing)

    # A failed node at the head of the order is passed over, not matched.
    cluster.node("h0").fail()
    small = build_linked_demands([8, 8], set())
    assert placements_of(Matcher(cluster), small) == {"d0": "h1", "d1": "h2"} \
        == placements_of(EagerMatcher(cluster), small)
    assert placements_of(Matcher(cluster), competing) is None \
        and placements_of(EagerMatcher(cluster), competing) is None


def test_one_preparation_serves_every_configuration_of_a_bundle():
    """Matching two configurations through one shared preparation equals
    matching each with its own, and reads free memory only for the nodes
    the walk looked at."""
    cluster = build_cluster([(64, "linux")] * 5)
    cluster.node("h0").memory.reserve("own", 60.0)
    small, large = (build_demands([(16, None)] * count) for count in (1, 3))
    shared = MatchPreparation(frozenset({"own"}))
    matcher = Matcher(cluster)
    for demands in (small, large):
        assert matcher.match(demands, prepared=shared) \
            == Matcher(cluster).match(demands, ignore_holders={"own"})
    # First-fit never needed h3 or h4, so their memory was never read.
    assert sorted(shared.free_mb) == ["h0", "h1", "h2"]

"""A prediction is a function of the view's state, not of its history.

A rolled-back trial re-inserts the application it moved at the end of a
host's (or link's) entries.  The sojourn sums ``sum_j min(s_j, s)`` then
meet the same competitors in another order, and a plain left-to-right
sum rounds differently: with three consumers on one host, moving one
away and back turned the 55.3 s job's estimate from ``110.6`` into
``110.60000000000001``.  Summed with ``math.fsum`` the estimate is the
same bits before and after, which is what lets a sweep skip a trial (the
read-set watermark in ``repro.controller.trial``) and still read the
values its serial oracle reads.
"""

import math

from repro.allocation.instantiate import instantiate_option
from repro.allocation.matcher import Assignment
from repro.cluster import Cluster
from repro.controller import ViewTrial
from repro.prediction import SystemView
from repro.rsl import build_bundle
from tests.oracle.per_hop import cpu_effective_seconds, transfer_effective_mb

#: The two competitors' seconds (or megabytes) and the job's own.
COMPETITORS = (23.7, 31.6)
OWN = 55.3


def job(seconds, megabytes=0.0):
    link = f" {{link x y {megabytes}}}" if megabytes else ""
    return instantiate_option(build_bundle(
        f"harmonyBundle J b {{{{o {{node x {{seconds {seconds}}} "
        f"{{memory 4}}}} {{node y {{seconds 1}} {{memory 4}}}}{link}}}}}"
    ).option_named("o"))


def on(host_x, host_y):
    return Assignment({"x": host_x, "y": host_y})


def crowded_view(megabytes=False):
    """``a``, ``b`` and ``c`` (the 55.3 job) share n0 and the n0-n1 link."""
    cluster = Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=128.0,
                                bandwidth_mbps=40.0)
    view = SystemView(cluster)
    for key, size in zip("abc", (*COMPETITORS, OWN)):
        view.place(key, job(size, size if megabytes else 0.0),
                   on("n0", "n1"))
    return view


def move_away_and_back(view, megabytes=False):
    size = COMPETITORS[0]
    with ViewTrial(view) as trial:
        trial.place("a", job(size, size if megabytes else 0.0),
                    on("n2", "n3"))
    assert [placed.app_key for placed in view.configurations()] == \
        ["a", "b", "c"]


def test_cpu_estimate_is_bit_equal_after_a_rolled_back_move():
    view = crowded_view()
    before = cpu_effective_seconds(view, "n0", OWN, own_app_key="c")
    move_away_and_back(view)
    after = cpu_effective_seconds(view, "n0", OWN, own_app_key="c")
    assert after == before == math.fsum((OWN, *COMPETITORS))


def test_transfer_estimate_is_bit_equal_after_a_rolled_back_move():
    view = crowded_view(megabytes=True)
    before = transfer_effective_mb(view, "n0", "n1", OWN,
                                   own_app_key="c")
    move_away_and_back(view, megabytes=True)
    after = transfer_effective_mb(view, "n0", "n1", OWN,
                                  own_app_key="c")
    assert after == before

"""Transactional SystemView: place/remove tokens, restore, ViewTrial.

The incremental optimizer trials candidates by mutating the live view and
rolling back (docs/performance.md).  These tests pin the undo-token
contract: a rolled-back trial leaves every observable — configurations,
footprints, contention counts, flows, iteration order, and the version
counter — exactly as before the trial.
"""

import pytest

from repro.allocation import Matcher, instantiate_option
from repro.controller import ViewTrial
from repro.prediction import SystemView
from repro.rsl import build_bundle
from tests.oracle.naive import sorted_preparation

RSL = """
harmonyBundle A b {
    {o {node x {seconds 10} {memory 4}}
       {node y {seconds 2} {memory 4}}
       {link x y 8}}}
"""

BIG_RSL = """
harmonyBundle A b {
    {o {node x {seconds 30} {memory 4}}
       {node y {seconds 5} {memory 4}}
       {link x y 24}}}
"""


def placed(cluster, rsl=RSL):
    demands = instantiate_option(build_bundle(rsl).option_named("o"))
    assignment = Matcher(cluster).match(demands)
    return demands, assignment


def snapshot(view):
    """Every observable the prediction models read, plus ordering."""
    return {
        "apps": [config.app_key for config in view.configurations()],
        "consumers": {h: view.cpu_consumers(h)
                      for h in ("n0", "n1", "n2", "n3")},
        "seconds": {h: view.cpu_seconds_on(h)
                    for h in ("n0", "n1", "n2", "n3")},
        "flows01": view.flows_between("n0", "n1"),
        "factor": {h: view.contention_factor(h)
                   for h in ("n0", "n1", "n2", "n3")},
        "version": view.version,
    }


class TestTokens:
    def test_place_token_restores_absence(self, small_cluster):
        view = SystemView(small_cluster)
        before = snapshot(view)
        token = view.place("app", *placed(small_cluster))
        assert view.configuration_of("app") is not None
        view.restore(token)
        assert view.configuration_of("app") is None
        assert snapshot(view) == before

    def test_place_token_restores_displaced(self, small_cluster):
        view = SystemView(small_cluster)
        view.place("app", *placed(small_cluster))
        before = snapshot(view)
        token = view.place("app", *placed(small_cluster, BIG_RSL))
        assert view.cpu_seconds_on("n0") == pytest.approx(30.0)
        view.restore(token)
        assert snapshot(view) == before
        assert view.cpu_seconds_on("n0") == pytest.approx(10.0)

    def test_remove_token_restores(self, small_cluster):
        view = SystemView(small_cluster)
        view.place("app", *placed(small_cluster))
        before = snapshot(view)
        token = view.remove("app")
        assert view.configuration_of("app") is None
        view.restore(token)
        assert snapshot(view) == before

    def test_remove_missing_is_noop_token(self, small_cluster):
        view = SystemView(small_cluster)
        before = snapshot(view)
        token = view.remove("ghost")
        assert snapshot(view) == before
        view.restore(token)
        assert snapshot(view) == before

    def test_rollback_preserves_version(self, small_cluster):
        """Version rewinds with a rollback, so caches keyed on the version
        (the TrialEngine's live predictions) survive trials."""
        view = SystemView(small_cluster)
        view.place("app1", *placed(small_cluster))
        version = view.version
        token = view.place("app2", *placed(small_cluster))
        assert view.version == version + 1
        view.restore(token)
        assert view.version == version

    def test_mutation_bumps_version(self, small_cluster):
        view = SystemView(small_cluster)
        version = view.version
        view.place("app", *placed(small_cluster))
        assert view.version == version + 1
        view.remove("app")
        assert view.version == version + 2


class TestViewTrial:
    def test_trial_rolls_back_on_exit(self, small_cluster):
        view = SystemView(small_cluster)
        view.place("app1", *placed(small_cluster))
        before = snapshot(view)
        with ViewTrial(view) as trial:
            trial.place("app2", *placed(small_cluster, BIG_RSL))
            trial.remove("app1")
            assert [c.app_key for c in view.configurations()] == ["app2"]
        assert snapshot(view) == before

    def test_trial_rolls_back_on_exception(self, small_cluster):
        view = SystemView(small_cluster)
        before = snapshot(view)
        with pytest.raises(RuntimeError):
            with ViewTrial(view) as trial:
                trial.place("app", *placed(small_cluster))
                raise RuntimeError("candidate rejected")
        assert snapshot(view) == before

    def test_nested_trials_unwind_in_order(self, small_cluster):
        view = SystemView(small_cluster)
        view.place("app1", *placed(small_cluster))
        before = snapshot(view)
        with ViewTrial(view) as outer:
            outer.remove("app1")
            mid = snapshot(view)
            with ViewTrial(view) as inner:
                inner.place("app2", *placed(small_cluster))
                inner.place("app1", *placed(small_cluster, BIG_RSL))
            assert snapshot(view) == mid
        assert snapshot(view) == before

    def test_tokens_are_recorded(self, small_cluster):
        view = SystemView(small_cluster)
        with ViewTrial(view) as trial:
            trial.place("app", *placed(small_cluster))
            assert len(trial.tokens) == 1
            assert trial.tokens[0].app_key == "app"


class TestDirtySets:
    def test_affected_by_shared_host(self, small_cluster):
        view = SystemView(small_cluster)
        token1 = view.place("app1", *placed(small_cluster))
        view.place("app2", *placed(small_cluster))
        affected = view.apps_affected_by(token1.added_footprint)
        assert "app2" in affected  # shares n0/n1 with app1

    def test_unrelated_hosts_not_affected(self, small_cluster):
        view = SystemView(small_cluster)
        demands = instantiate_option(build_bundle(RSL).option_named("o"))
        a = Matcher(small_cluster).match(demands)
        token1 = view.place("app1", demands, a)
        # Place app2 on the two remaining nodes by excluding the first.
        matcher = Matcher(small_cluster)
        b = matcher.match(demands, prepared=sorted_preparation(
            small_cluster, lambda h: int(h[1:]) < 2))
        view.place("app2", demands, b)
        assert set(b.hostnames()).isdisjoint(a.hostnames())
        affected = view.apps_affected_by(token1.added_footprint)
        assert "app2" not in affected

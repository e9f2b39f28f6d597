"""The paper's two experiments as integration tests (scaled down).

These validate the *shape* of the figures:

* Figure 7 — query-shipping response doubles with a second client, spikes
  with a third, and the switch to data shipping brings everyone back to
  roughly the two-client level;
* Figure 4 — one app gets 5 nodes (not 6), two get 4+4, three get 3+3+2.
"""

import pytest

from repro.apps.database import (
    DatabaseExperimentConfig,
    OPTION_DATA_SHIPPING,
    OPTION_QUERY_SHIPPING,
    run_database_experiment,
)
from repro.apps.parallel_experiment import (
    ParallelExperimentConfig,
    run_parallel_experiment,
)


@pytest.fixture(scope="module")
def fig7_rule():
    return run_database_experiment(DatabaseExperimentConfig(
        tuple_count=4000, policy="rule"))


@pytest.fixture(scope="module")
def fig4():
    return run_parallel_experiment(ParallelExperimentConfig(
        app_count=3, arrival_interval_seconds=1500.0,
        total_duration_seconds=4500.0))


class TestFigure7Shape:
    def test_three_phases_with_arrivals(self, fig7_rule):
        assert len(fig7_rule.phases) == 3
        assert [p.active_clients for p in fig7_rule.phases] == [1, 2, 3]

    def test_two_clients_roughly_double_response(self, fig7_rule):
        solo = fig7_rule.phases[0].mean_response_by_client["client0"]
        duo = fig7_rule.phases[1].mean_response_by_client["client0"]
        assert duo / solo == pytest.approx(2.0, rel=0.25)

    def test_third_client_triggers_ds_switch(self, fig7_rule):
        assert fig7_rule.switch_time is not None
        third_arrival = 2 * fig7_rule.config.arrival_interval_seconds
        assert fig7_rule.switch_time >= third_arrival
        assert fig7_rule.phases[2].dominant_option == OPTION_DATA_SHIPPING

    def test_transient_spike_before_switch(self, fig7_rule):
        """Between the third arrival and the switch, QS responses exceed
        the two-client level."""
        third_arrival = 2 * fig7_rule.config.arrival_interval_seconds
        spike = [response for time, response
                 in fig7_rule.response_series["client0"]
                 if third_arrival <= time < fig7_rule.switch_time]
        duo = fig7_rule.phases[1].mean_response_by_client["client0"]
        assert spike and max(spike) > duo * 1.2

    def test_post_switch_response_near_two_client_level(self, fig7_rule):
        duo = fig7_rule.phases[1].mean_response_by_client["client0"]
        after = fig7_rule.mean_response(
            "client0", fig7_rule.switch_time + 30.0,
            fig7_rule.config.total_duration_seconds)
        assert after == pytest.approx(duo, rel=0.25)

    def test_post_switch_beats_three_qs_clients(self, fig7_rule):
        third_arrival = 2 * fig7_rule.config.arrival_interval_seconds
        spike = fig7_rule.mean_response("client0", third_arrival,
                                        fig7_rule.switch_time)
        after = fig7_rule.mean_response(
            "client0", fig7_rule.switch_time + 30.0,
            fig7_rule.config.total_duration_seconds)
        assert after < spike

    def test_all_clients_switched(self, fig7_rule):
        for client, samples in fig7_rule.options_over_time.items():
            final_options = [option for time, option in samples
                             if time > fig7_rule.switch_time + 30.0]
            assert final_options
            assert set(final_options) == {OPTION_DATA_SHIPPING}

    def test_queries_ran_throughout(self, fig7_rule):
        assert fig7_rule.queries_total > 100


class TestFigure7ModelDriven:
    """The Section 4 optimizer reaches the same crossover as the rule."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_database_experiment(DatabaseExperimentConfig(
            tuple_count=4000, policy="model"))

    def test_solo_client_uses_query_shipping(self, result):
        first_options = [option for time, option
                         in result.options_over_time["client0"]
                         if time < result.config.arrival_interval_seconds]
        assert set(first_options) == {OPTION_QUERY_SHIPPING}

    def test_data_shipping_appears_by_third_client(self, result):
        final = [option
                 for samples in result.options_over_time.values()
                 for time, option in samples
                 if time > 2.5 * result.config.arrival_interval_seconds]
        assert OPTION_DATA_SHIPPING in final

    def test_mean_response_stays_bounded(self, result):
        """The optimizer keeps everyone below the all-QS worst case."""
        late = [result.mean_response(
            client, 2.5 * result.config.arrival_interval_seconds,
            result.config.total_duration_seconds)
            for client in result.response_series]
        solo = result.mean_response(
            "client0", 0, result.config.arrival_interval_seconds)
        assert all(value is not None and value < 3.2 * solo
                   for value in late)


class TestFigure4Shape:
    def test_first_frame_five_nodes_not_six(self, fig4):
        assert fig4.frames[0].partition() == [5]

    def test_second_frame_equal_partition(self, fig4):
        assert fig4.frames[1].partition() == [4, 4]

    def test_third_frame_three_three_two(self, fig4):
        assert fig4.frames[2].partition() == [3, 3, 2]

    def test_apps_really_reconfigure(self, fig4):
        series = fig4.iteration_series["Bag0"]
        worker_counts = {workers for _t, _e, workers in series}
        assert {5, 4}.issubset(worker_counts)

    def test_iteration_time_rises_as_machine_fills(self, fig4):
        frame0 = fig4.frames[0].mean_iteration_seconds.get("Bag0")
        frame2 = fig4.frames[2].mean_iteration_seconds.get("Bag0")
        assert frame0 is not None and frame2 is not None
        assert frame2 > frame0

    def test_decision_traces_show_pairwise_exchanges(self, fig4):
        reasons = {trace.trigger.split(" ")[0]
                   for trace in fig4.decision_traces}
        assert "pairwise" in reasons

    def test_no_node_oversubscribed_in_final_frames(self, fig4):
        for frame in fig4.frames[1:]:
            assert sum(frame.node_counts.values()) <= \
                fig4.config.node_count

"""Exporter formats: Prometheus text, JSON snapshot, JSONL dumps."""

import json
import math
import re

from repro.metrics import MetricInterface
from repro.obs.export import (
    json_snapshot,
    prometheus_text,
    sanitize_metric_name,
    spans_to_jsonl,
)
from repro.obs.trace import Tracer

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
#: One exposition sample: name, optional {labels}, a value.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>\S+)$")


def check_prometheus_exposition(text):
    """Minimal format checker; returns the parsed (name, labels) keys."""
    seen = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        assert NAME_RE.fullmatch(match.group("name"))
        key = (match.group("name"), match.group("labels"))
        assert key not in seen, f"duplicate sample: {line!r}"
        seen.add(key)
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            float(value)
    return seen


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("app.DBclient.1.response_time") \
            == "app_DBclient_1_response_time"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives").startswith("_")

    def test_legal_names_unchanged(self):
        assert sanitize_metric_name("valid_name:sub") == "valid_name:sub"

    def test_empty_name(self):
        assert sanitize_metric_name("") == "_"


class TestPrometheusText:
    def test_well_formed_exposition(self):
        metrics = MetricInterface()
        metrics.report("app.A.1.response", 0.0, 1.5)
        metrics.report("optimizer.candidates_evaluated", 0.0, 12.0)
        text = prometheus_text(metrics)
        samples = check_prometheus_exposition(text)
        assert ("app_A_1_response", None) in samples
        assert ("optimizer_candidates_evaluated", None) in samples

    def test_colliding_names_get_series_labels(self):
        metrics = MetricInterface()
        metrics.report("app.x.y", 0.0, 1.0)
        metrics.report("app.x-y", 0.0, 2.0)  # sanitizes to the same name
        text = prometheus_text(metrics)
        samples = check_prometheus_exposition(text)  # asserts no dupes
        labels = {label for name, label in samples if name == "app_x_y"}
        assert labels == {'{series="app.x.y"}', '{series="app.x-y"}'}

    def test_non_finite_values(self):
        metrics = MetricInterface()
        metrics.report("a.nan", 0.0, math.nan)
        metrics.report("a.inf", 0.0, math.inf)
        metrics.report("a.ninf", 0.0, -math.inf)
        text = prometheus_text(metrics)
        check_prometheus_exposition(text)
        assert "a_nan NaN" in text
        assert "a_inf +Inf" in text
        assert "a_ninf -Inf" in text

    def test_prefix_filter(self):
        metrics = MetricInterface()
        metrics.report("optimizer.match_calls", 0.0, 3.0)
        metrics.report("server.heartbeats", 0.0, 1.0)
        text = prometheus_text(metrics, prefix="optimizer")
        assert "optimizer_match_calls" in text
        assert "server_heartbeats" not in text

    def test_empty_interface(self):
        assert prometheus_text(MetricInterface()) == ""


class TestJsonSnapshot:
    def test_round_trips_through_json(self):
        metrics = MetricInterface()
        metrics.report("a.b", 0.0, 1.0)
        metrics.report("a.b", 1.0, 3.0)
        snapshot = json.loads(json.dumps(json_snapshot(metrics)))
        series = snapshot["metrics"]["a.b"]
        assert series["latest"] == 3.0
        assert series["count"] == 2
        assert series["mean"] == 2.0
        assert series["first_time"] == 0.0
        assert series["latest_time"] == 1.0

    def test_non_finite_becomes_null(self):
        metrics = MetricInterface()
        metrics.report("weird", 0.0, math.inf)
        snapshot = json_snapshot(metrics)
        json.dumps(snapshot, allow_nan=False)  # strict JSON must not raise
        assert snapshot["metrics"]["weird"]["latest"] is None

    def test_prefix_is_dotted_segment(self):
        metrics = MetricInterface()
        metrics.report("optimizer.cache.hits", 0.0, 1.0)
        metrics.report("optimizer_other", 0.0, 1.0)
        snapshot = json_snapshot(metrics, prefix="optimizer")
        assert list(snapshot["metrics"]) == ["optimizer.cache.hits"]


class TestHistogramExposition:
    def test_bucket_sum_count_triplet(self):
        metrics = MetricInterface()
        hist = metrics.histogram("scheduler.batch_seconds",
                                 bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.5):
            hist.observe(value)
        text = prometheus_text(metrics)
        samples = check_prometheus_exposition(text)
        base = "scheduler_batch_seconds"
        for bound in ("0.001", "0.01", "0.1", "+Inf"):
            assert (f"{base}_bucket", f'{{le="{bound}"}}') in samples
        assert (f"{base}_sum", None) in samples
        assert (f"{base}_count", None) in samples
        assert f"# TYPE {base} histogram" in text
        assert f"{base}_count 3" in text
        # Buckets are cumulative and end at the total count.
        assert f'{base}_bucket{{le="+Inf"}} 3' in text

    def test_timer_histogram_wins_over_its_gauge(self):
        metrics = MetricInterface()
        metrics.report("controller.flush_seconds", 0.0, 0.25)
        metrics.histogram("controller.flush_seconds").observe(0.25)
        text = prometheus_text(metrics)
        check_prometheus_exposition(text)
        # One TYPE line, histogram: the gauge series under the same
        # dotted name is suppressed rather than emitted twice.
        assert text.count("# TYPE controller_flush_seconds ") == 1
        assert "# TYPE controller_flush_seconds histogram" in text
        assert "controller_flush_seconds_count 1" in text

    def test_gauge_name_collision_dodged_with_hist_suffix(self):
        metrics = MetricInterface()
        # A *different* dotted gauge sanitizes onto the histogram's base.
        metrics.report("lock.a/wait", 0.0, 1.0)
        metrics.histogram("lock.a.wait").observe(0.5)
        text = prometheus_text(metrics)
        samples = check_prometheus_exposition(text)
        assert ("lock_a_wait", None) in samples            # the gauge
        assert ("lock_a_wait_hist_count", None) in samples  # the histogram

    def test_prefix_filter_applies_to_histograms(self):
        metrics = MetricInterface()
        metrics.histogram("lock.a.wait_seconds").observe(0.01)
        metrics.histogram("server.rpc_seconds").observe(0.2)
        text = prometheus_text(metrics, prefix="lock")
        assert "lock_a_wait_seconds_count" in text
        assert "server_rpc_seconds" not in text

    def test_json_snapshot_carries_histograms(self):
        metrics = MetricInterface()
        metrics.histogram("wal.append_seconds").observe(0.002)
        snapshot = json.loads(json.dumps(json_snapshot(metrics)))
        snap = snapshot["histograms"]["wal.append_seconds"]
        assert snap["count"] == 1
        assert snap["sum"] == 0.002


class TestSpansJsonl:
    def test_each_line_is_json(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        lines = spans_to_jsonl(tracer.spans).splitlines()
        assert len(lines) == 2
        names = {json.loads(line)["name"] for line in lines}
        assert names == {"outer", "inner"}

"""Command-line interface."""

import pathlib

import pytest

from repro.cli import main


@pytest.fixture
def rsl_file(tmp_path):
    def write(text, name="spec.rsl"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestCheck:
    def test_clean_bundle(self, rsl_file, capsys, figure3_rsl):
        path = rsl_file(figure3_rsl)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "1 bundle(s)" in out
        assert "no lint findings" in out
        assert "2 option(s)" in out

    def test_lint_warnings_reported(self, rsl_file, capsys):
        path = rsl_file("""harmonyBundle A b {
            {o {variable lanes {1 2}} {node n {seconds 5} {memory 4}}}}""")
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "unused-variable" in out
        assert "1 lint finding(s)" in out

    def test_strict_makes_findings_fatal(self, rsl_file, capsys):
        path = rsl_file("""harmonyBundle A b {
            {o {variable lanes {1 2}} {node n {seconds 5} {memory 4}}}}""")
        assert main(["check", path, "--strict"]) == 2

    def test_syntax_error_exits_nonzero(self, rsl_file, capsys):
        path = rsl_file("harmonyBundle A b { {unclosed")
        assert main(["check", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_semantic_error_exits_nonzero(self, rsl_file, capsys):
        path = rsl_file("harmonyFrobnicate x")
        assert main(["check", path]) == 1

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["check", "/no/such/file.rsl"]) == 1

    def test_configuration_count_printed(self, rsl_file, capsys,
                                         figure2b_rsl):
        path = rsl_file(figure2b_rsl)
        main(["check", path])
        assert "4 configuration(s)" in capsys.readouterr().out


class TestTags:
    def test_prints_table1(self, capsys):
        assert main(["tags"]) == 0
        out = capsys.readouterr().out
        for tag in ("harmonyBundle", "node", "link", "communication",
                    "performance", "granularity", "variable",
                    "harmonyNode", "speed"):
            assert tag in out


class TestExperiments:
    def test_fig7_quick_run(self, capsys):
        assert main(["fig7", "--tuples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "switch at" in out
        assert "3 client(s)" in out

    def test_fig4_two_apps(self, capsys):
        assert main(["fig4", "--apps", "2"]) == 0
        out = capsys.readouterr().out
        assert "frame 0 (1 app(s)): 5" in out
        assert "frame 1 (2 app(s)): 4+4" in out


class TestObservability:
    def test_metrics_prometheus(self, capsys):
        assert main(["metrics", "--tuples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE controller_objective gauge" in out
        assert "optimizer_candidates_evaluated" in out

    def test_metrics_json_with_prefix(self, capsys):
        assert main(["metrics", "--tuples", "2000", "--format", "json",
                     "--prefix", "server.rpc"]) == 0
        import json
        snapshot = json.loads(capsys.readouterr().out)
        names = list(snapshot["metrics"])
        assert names
        assert all(name.startswith("server.rpc.") for name in names)

    def test_trace_explains_both_options(self, capsys):
        assert main(["trace", "--tuples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "chose 'QS'" in out
        assert "chose 'DS'" in out          # the Figure 7 switch
        assert "rejected: rule-not-selected" in out
        assert "rule selected 'DS'" in out  # why QS lost at the switch

    def test_trace_jsonl_dumps(self, tmp_path, capsys):
        import json
        traces = tmp_path / "traces.jsonl"
        spans = tmp_path / "spans.jsonl"
        assert main(["trace", "--tuples", "2000",
                     "--jsonl", str(traces), "--spans", str(spans)]) == 0
        trace_records = [json.loads(line)
                         for line in traces.read_text().splitlines()]
        assert any(record["chosen_option"] == "DS"
                   for record in trace_records)
        span_records = [json.loads(line)
                        for line in spans.read_text().splitlines()]
        assert any(record["name"] == "controller.reevaluate"
                   for record in span_records)

    def test_trace_max_caps_output(self, capsys):
        assert main(["trace", "--tuples", "2000", "--max", "1"]) == 0
        out = capsys.readouterr().out
        assert "showing 1" in out


class TestServe:
    def test_serve_once_binds_and_exits(self, rsl_file, capsys):
        path = rsl_file("harmonyNode alpha {speed 2}\n"
                        "harmonyNode beta {speed 1}\n", name="nodes.rsl")
        assert main(["serve", "--nodes", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "alpha, beta" in out
        assert "Harmony server on 127.0.0.1:" in out

    def test_serve_rejects_bundle_only_file(self, rsl_file, capsys,
                                            figure3_rsl):
        path = rsl_file(figure3_rsl)
        assert main(["serve", "--nodes", path, "--once"]) == 1
        assert "no harmonyNode" in capsys.readouterr().err

    def test_serve_accepts_connections(self, rsl_file):
        """End to end: CLI-built server accepts a client session."""
        import threading

        from repro.api import HarmonyClient, HarmonyServer, TcpTransport
        from repro.cluster import Cluster
        from repro.controller import AdaptationController
        from repro.rsl import NodeAdvertisement, build_script

        path = rsl_file("harmonyNode alpha {speed 1} {memory 256}\n",
                        name="nodes.rsl")
        # Reuse the CLI's construction path directly.
        adverts = [r for r in build_script(pathlib.Path(path).read_text())
                   if isinstance(r, NodeAdvertisement)]
        cluster = Cluster()
        for advert in adverts:
            cluster.add_node(advert.hostname, speed=advert.speed,
                             memory_mb=advert.memory)
        controller = AdaptationController(cluster)
        server = HarmonyServer(controller)
        host, port = server.serve_tcp(port=0)
        try:
            client = HarmonyClient(TcpTransport.connect(host, port))
            key = client.startup("App")
            assert key == "App.1"
            client.end()
        finally:
            server.stop()

    @pytest.mark.parametrize("flag,value", [("--shards", "2"),
                                            ("--rebalance-seconds", "5")])
    def test_serve_has_no_federation_options(self, rsl_file, capsys, flag,
                                             value):
        path = rsl_file("harmonyNode alpha {speed 2}\n", name="nodes.rsl")
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--nodes", path, "--once", flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_there_is_no_shards_command(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["shards", "--connect", "127.0.0.1:9", "--app", "A"])
        assert exited.value.code == 2
        assert "invalid choice: 'shards'" in capsys.readouterr().err


class TestDurability:
    def test_checkpoint_then_restore_round_trip(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["checkpoint", "--dir", state, "--apps", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 application(s) journaled" in out
        assert "snapshot(s)" in out
        assert main(["restore", "--dir", state]) == 0
        out = capsys.readouterr().out
        assert "restored from" in out
        assert "replayed record(s)" in out
        assert "3 application(s)" in out
        assert "app0.1 where:" in out

    def test_checkpoint_kill_leaves_a_repairable_torn_tail(self, tmp_path,
                                                           capsys):
        state = str(tmp_path / "state")
        assert main(["checkpoint", "--dir", state, "--apps", "3",
                     "--kill-after", "5"]) == 0
        out = capsys.readouterr().out
        assert "simulated crash" in out
        assert "append #5" in out
        assert main(["restore", "--dir", state]) == 0
        assert "restored from" in capsys.readouterr().out

    def test_restore_with_nothing_to_restore_fails_cleanly(self, tmp_path,
                                                           capsys):
        assert main(["restore", "--dir", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestFormat:
    def test_format_pretty_prints_and_roundtrips(self, rsl_file, capsys,
                                                 figure3_rsl):
        from repro.rsl import build_bundle
        path = rsl_file(figure3_rsl)
        assert main(["format", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("harmonyBundle DBclient:1 where {")
        assert out.count("\n") > 5  # multi-line layout
        assert build_bundle(out) == build_bundle(figure3_rsl)

    def test_format_handles_node_advertisements(self, rsl_file, capsys):
        path = rsl_file("harmonyNode alpha {speed 2} {memory 128}\n")
        assert main(["format", path]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "harmonyNode alpha {speed 2} {memory 128}"

    def test_format_error_on_bad_input(self, rsl_file, capsys):
        path = rsl_file("harmonyBundle {")
        assert main(["format", path]) == 1

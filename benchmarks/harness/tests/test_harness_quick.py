"""``run.py --quick`` prints exactly what BENCHMARK.json declares."""

import json
import os
import subprocess
import sys

HARNESS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(HARNESS))

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
    MANIFEST = json.load(handle)


def quick(trace: int):
    """workload -> the result object of its quick run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HARNESS, "run.py"), "--quick",
         "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=170).stdout
    results, name = {}, None
    for line in out.splitlines():
        if line.startswith("workload "):
            name = line.split()[1]
        elif line.startswith("{"):
            results[name] = json.loads(line)
    return results


def check(results, declared):
    assert list(results) == [w["name"] for w in MANIFEST["workloads"]]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        printed = {key: value["unit"]
                   for key, value in result["metrics"].items()}
        assert printed == expected, name
        for key, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, key)


def test_quick_run_prints_the_declared_end_to_end_metrics():
    results = quick(trace=0)
    check(results, MANIFEST["end_to_end"])
    for name, result in results.items():
        for key, value in result["metrics"].items():
            assert value["value"] > 0, (name, key)


def test_quick_traced_run_prints_the_declared_per_layer_metrics():
    check(quick(trace=1), MANIFEST["per_layer"])
    for workload in MANIFEST["workloads"]:
        path = os.path.join(HARNESS, "out",
                            f"trace_{workload['name']}.jsonl")
        with open(path, encoding="utf-8") as handle:
            span = json.loads(handle.readline())
        assert {"name", "start", "end", "parent", "op"} <= set(span)


def test_the_manifest_matches_the_tables_in_run_py():
    sys.path.insert(0, HARNESS)
    import run
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in MANIFEST["per_layer"]} == run.PER_LAYER
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS

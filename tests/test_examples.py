"""Every example script must run clean.

The examples are executable documentation; each carries its own internal
assertions (the Figure 7 switch happened, the node-failure job shrank and
grew back, ...), so running them to completion is a meaningful end-to-end
check, not just an import smoke test.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = [
    ("quickstart.py", []),
    ("database_reconfiguration.py", ["--tuples", "2000"]),
    ("parallel_reconfiguration.py", ["--apps", "2"]),
    ("external_load_adaptation.py", []),
    ("node_failure.py", []),
    ("tcp_prototype.py", []),
    ("client_crash_recovery.py", []),
]


@pytest.mark.parametrize("script,args",
                         EXAMPLES, ids=[name for name, _ in EXAMPLES])
def test_example_runs_clean(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, \
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    assert result.stdout.strip(), f"{script} produced no output"


def test_every_example_file_is_listed():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    listed = {name for name, _args in EXAMPLES}
    assert on_disk == listed, (
        "examples/ and the EXAMPLES list diverged: "
        f"missing={on_disk - listed}, stale={listed - on_disk}")


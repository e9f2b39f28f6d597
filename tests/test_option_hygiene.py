"""Every option a constructor or entry point offers has a caller.

A defaulted parameter is a knob: each one doubles the configurations
the code must be tested and tuned over, and one that no deployment,
example or benchmark sets is behaviour only its own tests reach.  For
each entry point below, a defaulted parameter must be passed by keyword
somewhere under ``src/``, ``examples/`` or ``benchmarks/``, or be listed
in ``SEAMS`` with the test seam it is: a clock, a tracer or metric sink,
crash discipline, a deployment path or address, an admission bound, an
injected oracle, or the paper's manual ``flushPendingVars()`` mode.

``restore_controller`` (reached as ``AdaptationController.restore``)
and ``ReplicationStandby`` build an ``AdaptationController`` and a
``DurabilityJournal`` from what they are given, which must match what
the crashed or followed process was built with; a keyword set on those
constructors covers the same keyword there.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks")

#: Entry point -> (module under src/repro, class or None, function).
ENTRY_POINTS = {
    "HarmonyServer": ("api/server.py", "HarmonyServer", "__init__"),
    "HarmonyClient": ("api/client.py", "HarmonyClient", "__init__"),
    "AdaptationController": ("controller/controller.py",
                             "AdaptationController", "__init__"),
    "restore_controller": ("persistence/recovery.py", None,
                           "restore_controller"),
    "DurabilityJournal": ("persistence/journal.py", "DurabilityJournal",
                          "__init__"),
    "ReplicationStandby": ("persistence/replication.py",
                           "ReplicationStandby", "__init__"),
    "ReplicationPrimary": ("persistence/replication.py",
                           "ReplicationPrimary", "__init__"),
    "PendingVariableBuffer": ("api/variables.py", "PendingVariableBuffer",
                              "__init__"),
    "CoalescingScheduler": ("controller/scheduler.py",
                            "CoalescingScheduler", "__init__"),
    "ModelDrivenPolicy": ("controller/controller.py", "ModelDrivenPolicy",
                          "__init__"),
}

#: Entry point -> the constructors it forwards its keywords to.
FORWARDS = {
    "restore_controller": ("AdaptationController", "DurabilityJournal"),
    "ReplicationStandby": ("DurabilityJournal",),
}

#: (entry point, parameter) -> the test seam it is.
SEAMS = {
    ("HarmonyServer", "auto_flush"):
        "the paper's manual flushPendingVars() mode",
    ("HarmonyServer", "flight_dump_path"): "a deployment path",
    ("HarmonyServer", "fail_stop_on_error"):
        "crash discipline: the chaos suites fail-stop on an error",
    ("HarmonyServer", "max_pending_admissions"):
        "admission bound the backpressure tests fill",
    ("HarmonyClient", "metrics"): "a metric sink",
    ("HarmonyClient", "trace_sample_rate"): "a tracer's sampling",
    ("HarmonyClient", "failover"): "deployment addresses",
    ("ReplicationStandby", "address"): "a deployment address",
    ("ReplicationPrimary", "clock"): "a clock",
    ("ModelDrivenPolicy", "optimizer"):
        "an injected oracle (tests/oracle/naive.py)",
}


def defaulted_parameters(source, owner, function):
    """The names of ``function``'s parameters that carry a default."""
    scope = ast.parse(source).body
    if owner is not None:
        scope = next(node for node in scope
                     if isinstance(node, ast.ClassDef)
                     and node.name == owner).body
    args = next(node for node in scope
                if isinstance(node, ast.FunctionDef)
                and node.name == function).args
    positional = args.posonlyargs + args.args
    names = [arg.arg for arg in positional[len(positional)
                                           - len(args.defaults):]]
    return names + [arg.arg for arg, default in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                    if default is not None]


def called_name(call):
    """The entry point a call reaches, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    if (func.attr == "restore" and isinstance(func.value, ast.Name)
            and func.value.id == "AdaptationController"):
        return "restore_controller"
    return func.attr


def keywords_passed(sources):
    """Entry point -> every keyword some call in ``sources`` passes it."""
    passed = {name: set() for name in ENTRY_POINTS}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = called_name(node)
                if name in passed:
                    passed[name] |= {keyword.arg
                                     for keyword in node.keywords
                                     if keyword.arg is not None}
    for name, targets in FORWARDS.items():
        for target in targets:
            passed[name] |= passed[target]
    return passed


def unset_options(parameters, passed):
    """(entry point, parameter) pairs nobody passes and no seam names."""
    return sorted((name, parameter)
                  for name, names in parameters.items()
                  for parameter in names
                  if parameter not in passed[name]
                  and (name, parameter) not in SEAMS)


@functools.lru_cache(maxsize=None)
def passed_in_tree():
    return keywords_passed(
        path.read_text(encoding="utf-8")
        for directory in SCANNED
        for path in sorted((ROOT / directory).rglob("*.py")))


def entry_parameters(name):
    module, owner, function = ENTRY_POINTS[name]
    return defaulted_parameters(
        (ROOT / "src" / "repro" / module).read_text(encoding="utf-8"),
        owner, function)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_defaulted_parameter_has_a_caller_or_is_a_seam(name):
    assert unset_options({name: entry_parameters(name)},
                         passed_in_tree()) == []


def test_every_seam_names_a_parameter_nobody_passes():
    # A seam that names a deleted parameter, or one some caller now
    # sets, is stale: drop it so the allowlist only shrinks.
    passed = passed_in_tree()
    for name, parameter in SEAMS:
        assert parameter in entry_parameters(name), (name, parameter)
        assert parameter not in passed[name], (name, parameter)


def test_the_ratchet_sees_an_unused_keyword():
    server = ("class HarmonyServer:\n"
              "    def __init__(self, controller, lease_seconds=None,\n"
              "                 recovering=False):\n"
              "        pass\n")
    caller = "server = HarmonyServer(controller, lease_seconds=30.0)\n"
    parameters = {"HarmonyServer": defaulted_parameters(
        server, "HarmonyServer", "__init__")}
    assert parameters == {"HarmonyServer": ["lease_seconds", "recovering"]}
    assert unset_options(parameters, keywords_passed([caller])) == [
        ("HarmonyServer", "recovering")]

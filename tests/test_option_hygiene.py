"""Every option Harmony offers has a caller.

A defaulted parameter is a knob: each one doubles the configurations
the code must be tested and tuned over, and one that no deployment,
example or benchmark sets is behaviour only its own tests reach.

The scan covers every public function, class constructor, method and
dataclass field under ``src/repro``, except:

* ``apps/`` and ``cluster/``, which model the paper's workloads and its
  simulated hardware, not Harmony's behaviour;
* ``api/aio.py``, the second socket front end, which is to be deleted
  once the benchmark harness stops importing it.

A defaulted parameter counts as set when some call under ``src/``,
``examples/`` or ``benchmarks/`` passes it, by keyword or by position.
Calls are matched by name: ``x.flush(...)`` sets what it passes for
every method named ``flush``, a class's name calls its ``__init__`` (or
its dataclass fields, in order), ``partial(f, ...)`` calls ``f``, and a
keyword ``dataclasses.replace`` passes sets that field of every
dataclass.
A dataclass field declared ``field(init=False)`` is no parameter: that
is how a dataclass says a field is state that starts empty, not a
choice.  ``restore_controller`` (reached as
``AdaptationController.restore``) and ``ReplicationStandby`` build an
``AdaptationController`` and a ``DurabilityJournal`` from what they are
given, which must match what the crashed or followed process was built
with, so a keyword set on those constructors covers the same keyword
there.

Every other defaulted parameter is listed in ``SEAMS`` with the one
reason from ``SEAM_REASONS`` it exists for, and some test under
``tests/`` passes it: an entry no test passes is stale.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "examples", "benchmarks")
#: Parts of ``src/repro`` the scan leaves out (see the module docstring).
EXCLUDED = ("apps/", "cluster/", "api/aio.py")

#: Call name -> the constructors it forwards its keywords to.
FORWARDS = {
    "restore_controller": ("AdaptationController", "DurabilityJournal"),
    "ReplicationStandby": ("DurabilityJournal",),
}

#: The reasons a parameter nobody outside the tests sets may stay.
SEAM_REASONS = {
    "clock": "a clock the tests drive instead of sleeping",
    "deployment": "a deployment address, path or setting",
    "crash": "crash discipline",
    "oracle": "an injected oracle",
    "paper": "the paper's API or its manual flushPendingVars() mode",
    "faults": "the fault model",
}

#: (definition, parameter) -> its reason in SEAM_REASONS.
SEAMS = {
    ("HarmonyServer", "auto_flush"): "paper",
    ("HarmonyServer", "flight_dump_path"): "deployment",
    ("HarmonyServer", "fail_stop_on_error"): "crash",
    ("HarmonyServer.start_lease_monitor", "period_seconds"): "deployment",
    ("HarmonyClient", "failover"): "deployment",
    ("harmony_startup", "use_interrupts"): "paper",
    ("harmony_add_variable", "var_type"): "paper",
    ("harmony_wait_for_update", "timeout"): "paper",
    ("RetryPolicy", "backoff_multiplier"): "deployment",
    ("RetryPolicy", "backoff_max_seconds"): "deployment",
    ("RetryPolicy", "backoff_jitter"): "deployment",
    ("RetryPolicy", "heartbeat_interval_seconds"): "deployment",
    ("SeededFaultSchedule", "delay_rate"): "faults",
    ("SeededFaultSchedule", "duplicate_rate"): "faults",
    ("SeededFaultSchedule", "sever_after"): "faults",
    ("main", "argv"): "deployment",
    ("ModelDrivenPolicy", "optimizer"): "oracle",
    ("AdaptationController.register_model", "model_name"): "deployment",
    ("Namespace.children", "path"): "paper",
    ("CoalescingScheduler", "clock"): "clock",
    ("FlightRecorder", "clock"): "clock",
    ("Tracer", "clock"): "clock",
    ("FencingStore", "clock"): "clock",
    ("ReplicationStandby", "address"): "deployment",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _init_field(node):
    """Whether a dataclass body statement is a constructor field."""
    if not (isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)):
        return False
    value = node.value
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(keyword.arg == "init"
                        for keyword in value.keywords))


def _defaulted_arguments(args, skip_first):
    """(name, position or None) of each defaulted parameter; position
    counts from the first argument a caller passes."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if skip_first else 0
    found = [(arg.arg, index - offset)
             for index, arg in enumerate(positional)
             if index >= first_default]
    return found + [(arg.arg, None)
                    for arg, default in zip(args.kwonlyargs,
                                            args.kw_defaults)
                    if default is not None]


def definitions(source):
    """Definition -> (the names a call reaches it by, the first the one
    positions count for; its defaulted parameters as (name, position or
    None))."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) \
                and not node.name.startswith("_"):
            found[node.name] = ((node.name,),
                                _defaulted_arguments(node.args, False))
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            fields = [field for field in node.body if _init_field(field)]
            found[node.name] = ((node.name, "replace"), [
                (field.target.id, position)
                for position, field in enumerate(fields)
                if field.value is not None])
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or (
                    method.name.startswith("_")
                    and method.name != "__init__"):
                continue
            decorators = {getattr(decorator, "id", None)
                          for decorator in method.decorator_list}
            if "property" in decorators:
                continue
            parameters = _defaulted_arguments(
                method.args, "staticmethod" not in decorators)
            if method.name == "__init__":
                found[node.name] = ((node.name,), parameters)
            else:
                found[f"{node.name}.{method.name}"] = ((method.name,),
                                                       parameters)
    return found


def _call_target(call):
    """(called name, positional arguments, keywords) of a call, seeing
    through ``partial``; None when the callee has no name."""
    func, args, keywords = call.func, list(call.args), call.keywords
    if getattr(func, "id", getattr(func, "attr", None)) == "partial" \
            and args:
        func, args = args[0], args[1:]
    if isinstance(func, ast.Name):
        return func.id, args, keywords
    if not isinstance(func, ast.Attribute):
        return None
    if (func.attr == "restore" and isinstance(func.value, ast.Name)
            and func.value.id == "AdaptationController"):
        return "restore_controller", args, keywords
    return func.attr, args, keywords


def calls(sources):
    """Called name -> (keywords some call passes, the most positional
    arguments one passes)."""
    passed = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            target = isinstance(node, ast.Call) and _call_target(node)
            if not target:
                continue
            name, args, keywords = target
            names, most = passed.get(name, (frozenset(), 0))
            count = (float("inf")
                     if any(isinstance(arg, ast.Starred) for arg in args)
                     else len(args))
            passed[name] = (names | {keyword.arg for keyword in keywords
                                     if keyword.arg is not None},
                            max(most, count))
    for name, targets in FORWARDS.items():
        names, most = passed.get(name, (frozenset(), 0))
        for target in targets:
            names |= passed.get(target, (frozenset(), 0))[0]
        passed[name] = (names, most)
    return passed


def is_set(parameter, position, names, passed):
    """Whether a call to one of ``names`` passes ``parameter``."""
    keywords, most = passed.get(names[0], ((), 0))
    return (parameter in keywords
            or (position is not None and position < most)
            or any(parameter in passed.get(name, ((), 0))[0]
                   for name in names[1:]))


def unset_options(defined, passed):
    """(definition, parameter) pairs nobody passes and no seam names."""
    return sorted(
        (definition, parameter)
        for definition, (names, parameters) in defined.items()
        for parameter, position in parameters
        if not is_set(parameter, position, names, passed)
        and (definition, parameter) not in SEAMS)


def _sources(directories):
    return [path.read_text(encoding="utf-8")
            for directory in directories
            for path in sorted((ROOT / directory).rglob("*.py"))]


@functools.lru_cache(maxsize=None)
def passed_in_tree():
    return calls(_sources(CALLERS))


@functools.lru_cache(maxsize=None)
def passed_in_tests():
    return calls(_sources(("tests",)))


def scanned_modules():
    return [path.relative_to(PACKAGE).as_posix()
            for path in sorted(PACKAGE.rglob("*.py"))
            if not path.relative_to(PACKAGE).as_posix().startswith(EXCLUDED)]


@functools.lru_cache(maxsize=None)
def defined_in_tree():
    found = {}
    for module in scanned_modules():
        found.update(definitions(
            (PACKAGE / module).read_text(encoding="utf-8")))
    return found


@pytest.mark.parametrize("module", scanned_modules())
def test_every_defaulted_parameter_has_a_caller_or_is_a_seam(module):
    defined = definitions((PACKAGE / module).read_text(encoding="utf-8"))
    assert unset_options(defined, passed_in_tree()) == []


def test_the_scan_reaches_every_layer_but_the_modelled_ones():
    layers = {module.split("/")[0] for module in scanned_modules()}
    assert {"allocation", "api", "controller", "metrics", "namespace",
            "obs", "persistence", "prediction", "rsl", "cli.py"} <= layers
    assert not layers & {"apps", "cluster"}
    assert "api/aio.py" not in scanned_modules()


def test_every_seam_is_a_parameter_only_tests_pass_for_a_listed_reason():
    # A seam that names a deleted parameter, or one some caller now
    # sets, or one no test passes either, is stale: drop it so the
    # allowlist only shrinks.
    defined = defined_in_tree()
    assert set(SEAMS.values()) <= set(SEAM_REASONS)
    for definition, parameter in SEAMS:
        names, parameters = defined[definition]
        position = dict(parameters)[parameter]
        assert not is_set(parameter, position, names, passed_in_tree()), \
            (definition, parameter, "has a caller")
        assert is_set(parameter, position, names, passed_in_tests()), \
            (definition, parameter, "no test passes it")


def test_the_ratchet_sees_an_unused_keyword():
    server = ("class HarmonyServer:\n"
              "    def __init__(self, controller, lease_seconds=None,\n"
              "                 recovering=False):\n"
              "        pass\n")
    caller = "server = HarmonyServer(controller, lease_seconds=30.0)\n"
    defined = definitions(server)
    assert defined == {"HarmonyServer": (
        ("HarmonyServer",), [("lease_seconds", 1), ("recovering", 2)])}
    assert unset_options(defined, calls([caller])) == [
        ("HarmonyServer", "recovering")]


def test_a_positional_argument_counts_as_a_caller():
    buffer = ("class PendingVariableBuffer:\n"
              "    def flush(self, send, ready=None, *, strict=False):\n"
              "        pass\n")
    defined = definitions(buffer)
    assert unset_options(defined, calls(["buffer.flush(send)\n"])) == [
        ("PendingVariableBuffer.flush", "ready"),
        ("PendingVariableBuffer.flush", "strict")]
    assert unset_options(defined, calls(["buffer.flush(send, ready)\n"])) \
        == [("PendingVariableBuffer.flush", "strict")]
    assert unset_options(defined, calls(["buffer.flush(*both)\n"])) == [
        ("PendingVariableBuffer.flush", "strict")]


def test_the_ratchet_sees_a_method_level_now():
    server = ("class HarmonyServer:\n"
              "    def __init__(self, controller, clock=None):\n"
              "        pass\n"
              "    def check_leases(self, now=None):\n"
              "        pass\n"
              "    def _evict(self, key, now=None):\n"
              "        pass\n")
    caller = ("server = HarmonyServer(controller, clock=clock)\n"
              "server.check_leases()\n")
    assert unset_options(definitions(server), calls([caller])) == [
        ("HarmonyServer.check_leases", "now")]


def test_the_ratchet_sees_an_unused_dataclass_field():
    context = ("@dataclass\n"
               "class OptimizationContext:\n"
               "    view: object\n"
               "    stats: object = None\n"
               "    memory_probe_limit: int = 3\n"
               "    probes: dict = field(init=False, default_factory=dict)\n")
    caller = "OptimizationContext(view=view, stats=stats)\n"
    defined = definitions(context)
    assert defined == {"OptimizationContext": (
        ("OptimizationContext", "replace"),
        [("stats", 1), ("memory_probe_limit", 2)])}
    assert unset_options(defined, calls([caller])) == [
        ("OptimizationContext", "memory_probe_limit")]
    assert unset_options(defined, calls(["OptimizationContext(v, s, 3)\n"])) \
        == []
    assert unset_options(defined, calls([
        caller, "replace(context, memory_probe_limit=4)\n"])) == []


def test_a_seam_no_test_passes_is_stale():
    scheduler = ("class CoalescingScheduler:\n"
                 "    def __init__(self, controller, clock=None):\n"
                 "        pass\n")
    names, parameters = definitions(scheduler)["CoalescingScheduler"]
    position = dict(parameters)["clock"]
    seam = calls(["CoalescingScheduler(controller, clock=fake)\n"])
    stale = calls(["CoalescingScheduler(controller)\n"])
    assert is_set("clock", position, names, seam)
    assert not is_set("clock", position, names, stale)

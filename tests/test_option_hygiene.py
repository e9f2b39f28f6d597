"""Every option and every definition Harmony offers has a caller.

A defaulted parameter is a knob: each one doubles the configurations
the code must be tested and tuned over, and one that no deployment,
example or benchmark sets is behaviour only its own tests reach.  A
public function, class or method that nothing outside the tests names
is the same thing whole: code kept alive by its own tests.

Two scans check this, over different scopes.

The option scan covers every public function, class constructor, method
and dataclass field under ``src/repro``, except:

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

The definition scan covers every public function, class and method of a
public class under ``src/repro`` except ``api/aio.py``.  It does take in
``apps/`` and ``cluster/``: an unset parameter there is one of the
paper's experiment settings, left at the value the paper ran with, but
a simulated resource or workload method that no experiment builds or
calls models nothing the experiments measure.  A definition is reached
when its name is loaded (``ast.Name`` or ``ast.Attribute``, so a
property read, a callback passed by name, ``partial(f, ...)`` and an
``isinstance`` check all count), or given as a ``getattr``/``hasattr``
string, under ``src/``, ``examples/`` or ``benchmarks/`` outside its
own body; a ``module:path`` string in a ``TARGETS`` or
``RECEIVER_TARGETS`` table (the harness's tracing targets) names each
part of its path.  An import or an ``__all__`` entry is not a use: a
re-export calls nothing.  Names are matched as for options, so a load
of ``.flush`` reaches every method named ``flush``.

Every other public definition is listed in ``DEFINITION_SEAMS`` with
its reason from ``SEAM_REASONS``, and some test under ``tests/`` names
it: an entry no test reaches is stale.

The blind spot of both scans is that a name stands for every
definition that carries it.  An attribute load reaches every method of
that name on every class: ``order.copy()`` on a list reached a
``SystemView.copy`` only the test oracle called, and ``text.find(...)``
a ``Tracer.find`` only tests called.  Likewise a keyword reaches every
definition of the callee's name, so a constructor that forwards its own
parameter to a namesake (``redial`` passing ``metric_prefix=
self.metric_prefix``) counts as its setter.  What hides there is found
by reading the callers a definition's name is credited with.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "examples", "benchmarks")
#: Parts of ``src/repro`` each scan leaves out (see the module docstring).
EXCLUDED = ("apps/", "cluster/", "api/aio.py")
DEFINITION_EXCLUDED = ("api/aio.py",)

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
    "probe": "a read-only view of state the code already keeps, through "
             "which a test asserts what no other public route shows",
}

#: Public definition no caller reaches -> its reason in SEAM_REASONS.
DEFINITION_SEAMS = {
    # The paper's client library (Figure 5) and its interrupt mode.
    "set_default_client": "paper",
    "harmony_startup": "paper",
    "harmony_bundle_setup": "paper",
    "harmony_add_variable": "paper",
    "harmony_wait_for_update": "paper",
    "harmony_end": "paper",
    "VariableTable.on_update": "paper",
    # The paper's user-supplied performance model.
    "AdaptationController.register_model": "paper",
    "CallableModel": "paper",
    # The wire call that shows an application what resources exist.
    "HarmonyClient.query_nodes": "paper",
    # The paper's performance loop, and the client's half of the
    # session lease, which ``harmony-repro serve`` does not arm yet
    # (ROADMAP N21).
    "PerformanceEventMonitor": "paper",
    "HarmonyClient.start_heartbeats": "paper",
    "FaultyTransport.release_delayed": "faults",
    "FaultyTransport.pending_delayed": "faults",
    # Counters a client keeps, and the server's lease table: a heartbeat
    # or a lease check would change what it reads.
    "HarmonyClient.lease_lost": "probe",
    "HarmonyClient.heartbeats_acked": "probe",
    "HarmonyClient.reconnects": "probe",
    "HarmonyClient.redirects_followed": "probe",
    "HarmonyClient.failover_rotations": "probe",
    "HarmonyServer.lease_deadline": "probe",
    # The batch the server holds for a client it could not reach.
    "PendingVariableBuffer.pending_for": "probe",
}

#: (definition, parameter) -> its reason in SEAM_REASONS.
SEAMS = {
    ("HarmonyServer", "auto_flush"): "paper",
    ("HarmonyServer", "flight_dump_path"): "deployment",
    ("HarmonyServer", "fail_stop_on_error"): "crash",
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
}


#: Each source is parsed once, whichever scans read it.
_parse = functools.lru_cache(maxsize=None)(ast.parse)


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
    for node in _parse(source).body:
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
        for node in ast.walk(_parse(source)):
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


def _module(path):
    return path.relative_to(ROOT).as_posix()


@functools.lru_cache(maxsize=None)
def _sources(directories):
    """Module path -> source of every Python file under ``directories``."""
    return {_module(path): path.read_text(encoding="utf-8")
            for directory in directories
            for path in sorted((ROOT / directory).rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def passed_in(directories):
    return calls(_sources(directories).values())


@functools.lru_cache(maxsize=None)
def used_in(directories):
    return uses(_sources(directories))


def scanned_modules(excluded=EXCLUDED):
    return [path.relative_to(PACKAGE).as_posix()
            for path in sorted(PACKAGE.rglob("*.py"))
            if not path.relative_to(PACKAGE).as_posix().startswith(excluded)]


@functools.lru_cache(maxsize=None)
def defined_in_tree():
    found = {}
    for module in scanned_modules():
        found.update(definitions(
            (PACKAGE / module).read_text(encoding="utf-8")))
    return found


def public_definitions(source):
    """Public function, class or method of a public class -> (the name a
    use names it by, its first line, its last line)."""
    found = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in _parse(source).body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        found[node.name] = (node.name, node.lineno, node.end_lineno)
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if isinstance(method, kinds[:2]) \
                    and not method.name.startswith("_"):
                found[f"{node.name}.{method.name}"] = (
                    method.name, method.lineno, method.end_lineno)
    return found


def _loaded(node):
    """The names one AST node uses (see the module docstring)."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    if (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)):
        return [node.args[1].value]
    if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) in ("TARGETS", "RECEIVER_TARGETS")
            for target in node.targets):
        return [part for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant)
                and isinstance(constant.value, str)
                for part in constant.value.partition(":")[2].split(".")]
    return []


def uses(sources):
    """Name -> {module: the lines a use of it is on}, over a mapping of
    module -> source."""
    found = {}
    for module, source in sources.items():
        for node in ast.walk(_parse(source)):
            for name in _loaded(node):
                found.setdefault(name, {}).setdefault(
                    module, set()).add(node.lineno)
    return found


def is_reached(module, entry, used):
    """Whether some use of a definition lies outside its own body."""
    name, first, last = entry
    return any(other != module or not first <= line <= last
               for other, lines in used.get(name, {}).items()
               for line in lines)


def unreached(module, source, used):
    """Public definitions of ``module`` no use reaches and no seam names."""
    return sorted(
        definition
        for definition, entry in public_definitions(source).items()
        if not is_reached(module, entry, used)
        and definition not in DEFINITION_SEAMS)


@pytest.mark.parametrize("module", scanned_modules())
def test_every_defaulted_parameter_has_a_caller_or_is_a_seam(module):
    defined = definitions((PACKAGE / module).read_text(encoding="utf-8"))
    assert unset_options(defined, passed_in(CALLERS)) == []


LAYERS = {"allocation", "api", "controller", "metrics", "namespace", "obs",
          "persistence", "prediction", "rsl", "cli.py"}


def test_the_option_scan_skips_the_modelled_layers():
    layers = {module.split("/")[0] for module in scanned_modules()}
    assert LAYERS <= layers
    assert not layers & {"apps", "cluster"}
    assert "api/aio.py" not in scanned_modules()


def test_the_definition_scan_reaches_every_layer():
    modules = scanned_modules(DEFINITION_EXCLUDED)
    layers = {module.split("/")[0] for module in modules}
    assert LAYERS | {"apps", "cluster"} <= layers
    assert "api/aio.py" not in modules


@pytest.mark.parametrize("module", scanned_modules(DEFINITION_EXCLUDED))
def test_every_public_definition_has_a_caller_or_is_a_seam(module):
    path = PACKAGE / module
    assert unreached(_module(path), path.read_text(encoding="utf-8"),
                     used_in(CALLERS)) == []


def test_every_definition_seam_is_reached_only_by_tests():
    # As for SEAMS: an entry that names a deleted definition, one some
    # caller now reaches, or one no test names either is stale.
    assert set(DEFINITION_SEAMS.values()) <= set(SEAM_REASONS)
    defined = {}
    for module in scanned_modules(DEFINITION_EXCLUDED):
        path = PACKAGE / module
        for definition, entry in public_definitions(
                path.read_text(encoding="utf-8")).items():
            defined[definition] = (_module(path), entry)
    for definition in DEFINITION_SEAMS:
        assert definition in defined, (definition, "is not defined")
        module, entry = defined[definition]
        assert not is_reached(module, entry, used_in(CALLERS)), \
            (definition, "has a caller")
        assert entry[0] in used_in(("tests",)), \
            (definition, "no test names it")


def test_every_seam_is_a_parameter_only_tests_pass_for_a_listed_reason():
    # A seam that names a deleted parameter, or one some caller now
    # sets, or one no test passes either, is stale: drop it so the
    # allowlist only shrinks.
    defined = defined_in_tree()
    assert set(SEAMS.values()) <= set(SEAM_REASONS)
    for definition, parameter in SEAMS:
        names, parameters = defined[definition]
        position = dict(parameters)[parameter]
        assert not is_set(parameter, position, names, passed_in(CALLERS)), \
            (definition, parameter, "has a caller")
        assert is_set(parameter, position, names, passed_in(("tests",))), \
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


def _unreached(source, *callers):
    used = uses({"server.py": source, **{
        f"caller{index}.py": caller for index, caller in enumerate(callers)}})
    return unreached("server.py", source, used)


SERVER = ("class HarmonyServer:\n"
          "    def check_leases(self):\n"
          "        return self.check_leases\n"
          "    def evict(self, key):\n"
          "        pass\n"
          "    def _flush(self):\n"
          "        pass\n")


def test_the_ratchet_sees_an_uncalled_method():
    assert public_definitions(SERVER) == {
        "HarmonyServer": ("HarmonyServer", 1, 7),
        "HarmonyServer.check_leases": ("check_leases", 2, 3),
        "HarmonyServer.evict": ("evict", 4, 5)}
    # check_leases names itself, which is no caller.
    assert _unreached(SERVER, "server = HarmonyServer()\n") == [
        "HarmonyServer.check_leases", "HarmonyServer.evict"]
    assert _unreached(SERVER, "server = HarmonyServer()\n",
                      "server.evict(key)\n") == [
        "HarmonyServer.check_leases"]


@pytest.mark.parametrize("caller, definition", [
    ("deadline = server.check_leases\n", "HarmonyServer.check_leases"),
    ("thread = Thread(target=server.check_leases)\n",
     "HarmonyServer.check_leases"),
    ("tick = partial(HarmonyServer.check_leases, server)\n",
     "HarmonyServer.check_leases"),
    ("run = getattr(server, 'check_leases')\n", "HarmonyServer.check_leases"),
    ("if isinstance(server, HarmonyServer):\n    pass\n", "HarmonyServer"),
    ("TARGETS = {'api.leases': 'repro.api.server:HarmonyServer.evict'}\n",
     "HarmonyServer"),
])
def test_a_load_of_the_name_counts_as_a_use(caller, definition):
    # A ``module:path`` target names each part of its path.
    assert definition not in _unreached(SERVER, caller, "server.evict(key)\n")
    assert definition in _unreached(SERVER, "server.evict(key)\n")


@pytest.mark.parametrize("caller", [
    "from repro.api.server import HarmonyServer, check_leases\n",
    "__all__ = ['HarmonyServer', 'check_leases']\n",
])
def test_a_re_export_is_no_use(caller):
    assert _unreached(SERVER, caller, "server.evict(key)\n") == [
        "HarmonyServer", "HarmonyServer.check_leases"]


def test_a_definition_seam_no_test_reaches_is_stale():
    entry = public_definitions(SERVER)["HarmonyServer.evict"]
    seam = uses({"test_server.py": "server.evict(key)\n"})
    stale = uses({"test_server.py": "server.check_leases()\n"})
    assert is_reached("server.py", entry, seam)
    assert not is_reached("server.py", entry, stale)

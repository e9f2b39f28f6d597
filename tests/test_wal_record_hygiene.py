"""The WAL carries what replay applies, and nothing else.

Every record ``DurabilityJournal`` appends is fsync'd before the
operation it belongs to returns, and shipped to every standby.  A record
that ``apply_record`` skips is a second copy of a fact some other store
already holds: the eviction's ``release``, the ``RecoveryReport``, a
metric or a span.  One kind is exempt: ``genesis``, the topology a
fresh log starts from, read by ``load_directory`` itself.  Add a kind
only together with the replay branch that applies it.
"""

import ast
import pathlib

PERSISTENCE = pathlib.Path(__file__).resolve().parent.parent / "src" / \
    "repro" / "persistence"

#: Kinds the log may carry although replay applies no state from them.
EXEMPT = {"genesis"}


def appended_kinds(source):
    """The literal kinds passed to ``self.append(...)``."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.args and isinstance(node.args[0], ast.Constant)}


def applied_kinds(source):
    """The kinds ``apply_record`` names in a branch that does more than
    ``pass``."""
    function = next(node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "apply_record")
    applied = set()
    for branch in ast.walk(function):
        if not isinstance(branch, ast.If) or not isinstance(
                branch.test, ast.Compare):
            continue
        if all(isinstance(statement, ast.Pass) for statement in branch.body):
            continue
        names = branch.test.comparators[0]
        literals = names.elts if isinstance(names, ast.Tuple) else [names]
        applied |= {literal.value for literal in literals
                    if isinstance(literal, ast.Constant)}
    return applied


def test_every_journaled_kind_is_applied_on_replay():
    journal = (PERSISTENCE / "journal.py").read_text(encoding="utf-8")
    recovery = (PERSISTENCE / "recovery.py").read_text(encoding="utf-8")
    appended = appended_kinds(journal)
    assert {"register", "apply", "release"} <= appended
    assert appended - applied_kinds(recovery) - EXEMPT == set()


def test_the_ratchet_sees_an_audit_copy():
    journal = ("class J:\n"
               "    def record_recovered(self, report):\n"
               "        self.append('recovered', report)\n")
    recovery = ("def apply_record(controller, journal, record):\n"
                "    kind = record.kind\n"
                "    if kind == 'register':\n"
                "        controller.register_app(record.data)\n"
                "    elif kind in ('genesis', 'recovered'):\n"
                "        pass\n")
    assert appended_kinds(journal) == {"recovered"}
    assert applied_kinds(recovery) == {"register"}


def constant_one_reports(source):
    """Lines of ``metrics.report(name, time, 1.0)`` calls: a sample whose
    latest value reads 1 however many events it counts."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "report" and len(node.args) == 3):
            continue
        owner = node.func.value
        name = getattr(owner, "attr", getattr(owner, "id", None))
        value = node.args[2]
        if name == "metrics" and isinstance(value, ast.Constant) \
                and value.value == 1.0:
            lines.append(node.lineno)
    return lines


def test_events_are_counted_not_reported_as_one():
    """An event count is ``metrics.increment``: a constant ``1.0`` sample
    exports 1 whatever the count."""
    found = [f"{path.relative_to(PERSISTENCE.parent)}:{line}"
             for path in sorted(PERSISTENCE.parent.rglob("*.py"))
             for line in constant_one_reports(
                 path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_ratchet_sees_a_constant_sample():
    source = ("def evict(self, metrics):\n"
              "    self.metrics.report('controller.evictions', 0.0, 1.0)\n"
              "    metrics.report('x', 0.0, 1)\n"
              "    self.metrics.report('y', 0.0, float(2))\n"
              "    self.metrics.increment('z', 0.0)\n")
    assert constant_one_reports(source) == [2, 3]

"""The import ratchet: each entry point loads only the layers it runs.

Every check imports in a fresh interpreter and reads ``sys.modules``, so
one test's imports cannot hide another's.  A new eager import across a
layer boundary (the RSL front end pulling in the server, the client
library pulling in the controller, anything pulling in networkx) fails
here by name.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.api


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``, with
    the ``repro`` this process imported first on its path."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    code = f"{statement}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def under(modules: set[str], package: str) -> set[str]:
    return {name for name in modules
            if name == package or name.startswith(package + ".")}


def test_package_root_loads_no_subpackage():
    modules = loaded_after("import repro")
    assert under(modules, "repro") == {"repro", "repro._lazy"}


def test_rsl_front_end_loads_no_server_controller_or_journal():
    modules = loaded_after("from repro.rsl import build_script, lint_bundle")
    for package in ("repro.api", "repro.controller", "repro.persistence"):
        assert not under(modules, package), package


def test_client_library_loads_no_server_controller_or_asyncio():
    modules = loaded_after("from repro.api import HarmonyClient, TcpTransport")
    assert "repro.api.client" in modules
    for package in ("repro.controller", "repro.api.server", "repro.api.aio",
                    "asyncio"):
        assert not under(modules, package), package


def test_serve_stack_loads_no_networkx():
    modules = loaded_after(
        "from repro.api import HarmonyServer\n"
        "from repro.controller import AdaptationController\n"
        "from repro.persistence import DurabilityJournal")
    assert "repro.api.server" in modules
    assert not under(modules, "networkx")


@pytest.mark.parametrize("package", [repro, repro.api],
                         ids=lambda package: package.__name__)
def test_every_export_resolves_and_is_listed(package):
    listing = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listing, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")

"""The snapshot's bundle codec: a built bundle survives strict JSON.

A format-2 snapshot stores each bundle as ``codec.bundle_to_dict`` of its
built model, and a restore rebuilds it with ``codec.bundle_from_dict``
instead of the RSL front end.  Whatever a client could have sent must
come back equal, through ``json.dumps(..., allow_nan=False)`` — so an
unbounded constraint is never written as ``Infinity``.
"""

import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings

from repro.apps.bag import bag_bundle_rsl
from repro.apps.database import (
    CostParameters,
    DatabaseEngine,
    database_bundle_numbers,
    database_bundle_rsl,
    make_wisconsin_pair,
)
from repro.apps.simple import simple_bundle_rsl
from repro.persistence.codec import bundle_from_dict, bundle_to_dict
from repro.rsl import build_bundle
from tests.conftest import FIGURE2A_RSL, FIGURE2B_RSL, FIGURE3_RSL
from tests.rsl.test_roundtrip import bundles

EXAMPLES_DIR = pathlib.Path(__file__).parents[2] / "examples"

#: The benchmark harness's two-option bundle, pod-scoped.
HARNESS_RSL = """
harmonyBundle Pod3 size {
    {small {node n {hostname p3n*} {seconds 60} {memory 24}}}
    {large {node n {hostname p3n*} {seconds 35} {memory 24} {replicate 2}}
            {communication 4}}}
"""

#: Every tag and every quantity form the builder accepts.
EVERY_TAG_RSL = """
harmonyBundle Kitchen:3 sink {
    {wide {variable workers {1 2 4} 2}
          {node head {hostname db.example} {os aix} {seconds 5}
                     {memory >=32} {rack r7}}
          {node worker {seconds {100 / workers}} {memory 16..64}
                       {replicate workers}}
          {link head worker {workers * 3}}
          {performance {40 + 60 / workers}}
          {granularity 12.5}
          {friction {2 * workers}}}
    {narrow {node only {seconds >10} {memory <=48}}
            {performance {1 30} {2 20}}
            {communication 7}}
    {bounded {node only {seconds <5} {memory 0.5}}}}
"""


def roundtrip(bundle):
    text = json.dumps(bundle_to_dict(bundle), allow_nan=False)
    return bundle_from_dict(json.loads(text))


def example_bundles():
    """The bundles the example scripts send, by script."""
    found = {}
    for name in ("quickstart", "external_load_adaptation",
                 "client_crash_recovery", "tcp_prototype"):
        spec = importlib.util.spec_from_file_location(
            f"example_{name}", EXAMPLES_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        found[name] = module.BUNDLE if hasattr(module, "BUNDLE") \
            else module.db_bundle("c1")
    return found


def database_rsl():
    a, b = make_wisconsin_pair(500, seed=1)
    numbers = database_bundle_numbers(DatabaseEngine(a, b, CostParameters()))
    return database_bundle_rsl("c1", "s0", numbers)


NAMED = {
    "harness": HARNESS_RSL,
    "every_tag": EVERY_TAG_RSL,
    "bag": bag_bundle_rsl(granularity_seconds=5.0, friction_seconds=3.0),
    "simple": simple_bundle_rsl(),
    "database": database_rsl(),
    "figure2a": FIGURE2A_RSL,
    "figure2b": FIGURE2B_RSL,
    "figure3": FIGURE3_RSL,
    **example_bundles(),
}


@settings(max_examples=60, deadline=None)
@given(bundles())
def test_generated_bundles_roundtrip(bundle):
    assert roundtrip(bundle) == bundle


@pytest.mark.parametrize("rsl", NAMED.values(), ids=NAMED.keys())
def test_named_bundles_roundtrip(rsl):
    bundle = build_bundle(rsl)
    assert roundtrip(bundle) == bundle


def test_an_expression_travels_as_its_source():
    bundle = build_bundle(EVERY_TAG_RSL)
    wide = bundle_to_dict(bundle)["options"][0]
    assert wide["nodes"][1]["seconds"] == "100 / workers"
    assert wide["performance"]["expression"] == "40 + 60 / workers"
    assert roundtrip(bundle).options[0].nodes[1].seconds.value(
        {"workers": 4}) == 25.0


def test_an_unbounded_constraint_is_written_as_null():
    bundle = build_bundle(EVERY_TAG_RSL)
    memory = bundle_to_dict(bundle)["options"][0]["nodes"][0]["memory"]
    assert memory == [32.0, None, True]

"""Serialization between controller state and strict-JSON documents.

The durability layer never pickles live objects.  Everything on disk is
plain JSON built from primitives.  A bundle is stored as its built model
(:func:`bundle_to_dict`) and decoded by constructing the model classes
directly, so a restore never runs the RSL front end again; the model's
own checks (``__post_init__``, the builder's link-endpoint check) reject
a body no encoder wrote.  A chosen configuration is stored as
``(option, variables, grants, placements)`` and re-derived through
:func:`~repro.allocation.instantiate.instantiate_option` — the same
deterministic path the optimizer used to build it, so the restored
``ConcreteDemands`` is equal by construction.

Snapshots additionally embed a *digest* (``describe_system`` lines, the
objective, the predictions) read from the prediction cache when the
snapshot was written; recovery recomputes all three after rebuilding
state and refuses to proceed on any mismatch (:class:`~repro.errors.RecoveryError`).  A body
that cannot be decoded at all — a missing key, a wrong type — raises
:class:`~repro.errors.RecoveryError` too, never a bare ``KeyError``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Collection, Iterator, Mapping

from repro.allocation.instantiate import instantiate_option
from repro.allocation.matcher import Assignment
from repro.cluster.topology import Cluster
from repro.controller.optimizer import Candidate
from repro.controller.registry import AppInstance, BundleState
from repro.errors import HarmonyError, RecoveryError
from repro.rsl.builder import _check_link_endpoints
from repro.rsl.constraints import Constraint
from repro.rsl.expressions import parse_expression
from repro.rsl.model import (
    Bundle,
    CommunicationRequirement,
    FrictionSpec,
    GranularitySpec,
    LinkRequirement,
    NodeRequirement,
    PerformancePoint,
    PerformanceSpec,
    Quantity,
    TuningOption,
    VariableSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController
    from repro.persistence.journal import DurabilityJournal

__all__ = ["topology_to_dict", "cluster_from_topology", "bundle_to_dict",
           "bundle_from_dict", "candidate_to_dict", "candidate_from_dict",
           "controller_state", "apply_state", "bundle_model_key"]


@contextmanager
def _decoding(what: str) -> Iterator[None]:
    """Re-raise a decoder's bare ``KeyError``/``TypeError``/… as a typed
    :class:`RecoveryError`; the model's own errors pass through."""
    try:
        yield
    except HarmonyError:
        raise
    except (KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        raise RecoveryError(
            f"malformed {what}: {type(exc).__name__}: {exc}") from exc


# -- cluster topology --------------------------------------------------------

def topology_to_dict(cluster: Cluster) -> dict[str, Any]:
    """The cluster's shape and availability as a JSON document.

    Each link is a row ``[host_a, host_b, bandwidth_mbps,
    latency_seconds]``: a 48-node mesh has 1,128 of them.
    """
    nodes = []
    for node in cluster.nodes():
        nodes.append({
            "hostname": node.hostname,
            "speed": node.speed,
            "memory_mb": node.memory.total_mb,
            "os": node.os,
            "attributes": dict(node.attributes),
            "available": node.available,
        })
    links = [[link.host_a, link.host_b, link.bandwidth_mbps,
              link.latency_seconds] for link in cluster.links()]
    return {"nodes": nodes, "links": links}


def cluster_from_topology(data: Mapping[str, Any]) -> Cluster:
    """A fresh cluster (own kernel, clock at zero) from a topology dict.

    Links written as dicts are snapshot format 1's and are refused by
    name, not read as rows of their keys.
    """
    with _decoding("topology"):
        links = data["links"]
        if links and isinstance(links[0], dict):
            raise RecoveryError(
                "topology links are dicts, as snapshot format 1 wrote "
                "them; this version reads only format 2, whose links are "
                "rows [host_a, host_b, bandwidth_mbps, latency_seconds]")
        cluster = Cluster()
        for node in data["nodes"]:
            built = cluster.add_node(
                node["hostname"], speed=float(node["speed"]),
                memory_mb=float(node["memory_mb"]), os=str(node["os"]),
                attributes=dict(node.get("attributes") or {}))
            if not node.get("available", True):
                built.fail()
        cluster.add_links(
            (host_a, host_b, float(bandwidth_mbps), float(latency_seconds))
            for host_a, host_b, bandwidth_mbps, latency_seconds in links)
    return cluster


# -- bundles -----------------------------------------------------------------
#
# A quantity is a number (an exact constant), a string (an expression's
# source) or a row ``[minimum, maximum-or-null, elastic]`` (an interval;
# null is an unbounded maximum, which strict JSON cannot write as inf).
# Link requirements, variables and performance points are rows too.

def bundle_to_dict(bundle: Bundle) -> dict[str, Any]:
    """A built bundle as a JSON document :func:`bundle_from_dict` reads."""
    return {
        "app_name": bundle.app_name,
        "bundle_name": bundle.bundle_name,
        "declared_instance": bundle.declared_instance,
        "options": [_option_to_dict(option) for option in bundle.options],
    }


def bundle_from_dict(data: Mapping[str, Any]) -> Bundle:
    """Rebuild a bundle from :func:`bundle_to_dict`'s document.

    Constructs the model classes directly, so their ``__post_init__``
    checks and the builder's link-endpoint check run as when the text
    was first built; a malformed document raises a typed error.
    """
    with _decoding("bundle model"):
        instance = data["declared_instance"]
        return Bundle(
            app_name=data["app_name"], bundle_name=data["bundle_name"],
            options=tuple(_option_from_dict(option)
                          for option in data["options"]),
            declared_instance=None if instance is None else int(instance))


def _option_to_dict(option: TuningOption) -> dict[str, Any]:
    performance = option.performance
    return {
        "name": option.name,
        "nodes": [_node_to_dict(node) for node in option.nodes],
        "links": [[link.endpoint_a, link.endpoint_b,
                   _quantity_to_json(link.megabytes)]
                  for link in option.links],
        "communication": None if option.communication is None
        else _quantity_to_json(option.communication.megabytes),
        "performance": None if performance is None else {
            "points": [[point.x, point.seconds]
                       for point in performance.points],
            "expression": None if performance.expression is None
            else performance.expression.source,
            "parameter": performance.parameter,
        },
        "granularity": None if option.granularity is None
        else option.granularity.min_interval_seconds,
        "variables": [[variable.name, list(variable.values),
                       variable.default] for variable in option.variables],
        "friction": None if option.friction is None
        else _quantity_to_json(option.friction.seconds),
    }


def _option_from_dict(data: Mapping[str, Any]) -> TuningOption:
    communication = data["communication"]
    performance = data["performance"]
    granularity = data["granularity"]
    friction = data["friction"]
    option = TuningOption(
        name=data["name"],
        nodes=tuple(_node_from_dict(node) for node in data["nodes"]),
        links=tuple(LinkRequirement(endpoint_a, endpoint_b,
                                    _quantity_from_json(megabytes))
                    for endpoint_a, endpoint_b, megabytes in data["links"]),
        communication=None if communication is None
        else CommunicationRequirement(_quantity_from_json(communication)),
        performance=None if performance is None
        else _performance_from_dict(performance),
        granularity=None if granularity is None
        else GranularitySpec(float(granularity)),
        variables=tuple(
            VariableSpec(name, tuple(float(value) for value in values),
                         None if default is None else float(default))
            for name, values, default in data["variables"]),
        friction=None if friction is None
        else FrictionSpec(_quantity_from_json(friction)))
    _check_link_endpoints(option)
    return option


def _performance_from_dict(data: Mapping[str, Any]) -> PerformanceSpec:
    expression = data["expression"]
    return PerformanceSpec(
        points=tuple(PerformancePoint(float(x), float(seconds))
                     for x, seconds in data["points"]),
        expression=None if expression is None
        else parse_expression(expression),
        parameter=data["parameter"])


def _node_to_dict(node: NodeRequirement) -> dict[str, Any]:
    return {
        "name": node.name,
        "hostname": node.hostname,
        "os": node.os,
        "seconds": _quantity_to_json(node.seconds),
        "memory": _quantity_to_json(node.memory),
        "replicate": _quantity_to_json(node.replicate),
        "attributes": dict(node.attributes),
    }


def _node_from_dict(data: Mapping[str, Any]) -> NodeRequirement:
    return NodeRequirement(
        name=data["name"], hostname=data["hostname"], os=data["os"],
        seconds=_quantity_from_json(data["seconds"]),
        memory=_quantity_from_json(data["memory"]),
        replicate=_quantity_from_json(data["replicate"]),
        attributes=dict(data["attributes"]))


def _quantity_to_json(quantity: Quantity | None) -> Any:
    if quantity is None:
        return None
    if quantity.expression is not None:
        return quantity.expression.source
    constraint = quantity.constraint
    if constraint.is_exact() and not constraint.elastic:
        return constraint.minimum
    maximum = None if math.isinf(constraint.maximum) else constraint.maximum
    return [constraint.minimum, maximum, constraint.elastic]


def _quantity_from_json(data: Any) -> Quantity | None:
    if data is None:
        return None
    if isinstance(data, str):
        return Quantity(expression=parse_expression(data))
    if isinstance(data, list):
        minimum, maximum, elastic = data
        return Quantity(constraint=Constraint(
            float(minimum), math.inf if maximum is None else float(maximum),
            bool(elastic)))
    return Quantity.of(float(data))


# -- candidates / chosen configurations --------------------------------------

def candidate_to_dict(candidate: Candidate) -> dict[str, Any]:
    """The replayable core of one applied candidate."""
    return {
        "option_name": candidate.option_name,
        "variable_assignment": dict(candidate.variable_assignment),
        "memory_grants": dict(candidate.memory_grants),
        "placements": dict(candidate.assignment.placements),
        "predicted_seconds": candidate.predicted_seconds,
        "objective_value": candidate.objective_value,
    }


def candidate_from_dict(state: BundleState,
                        data: Mapping[str, Any]) -> Candidate:
    """Rebuild a candidate against the bundle's live RSL model, from an
    ``apply`` record or a snapshot's chosen configuration."""
    option = state.bundle.option_named(str(data["option_name"]))
    variables = {str(k): float(v) for k, v in
                 dict(data["variable_assignment"]).items()}
    grants = {str(k): float(v) for k, v in
              dict(data["memory_grants"]).items()}
    demands = instantiate_option(option, variables, grants or None)
    return Candidate(
        option_name=option.name,
        variable_assignment=variables,
        memory_grants=grants,
        demands=demands,
        assignment=Assignment(placements={
            str(k): str(v) for k, v in dict(data["placements"]).items()}),
        objective_value=float(data.get("objective_value", math.inf)),
        predicted_seconds=float(data["predicted_seconds"]))


# -- whole-controller state ---------------------------------------------------

def controller_state(controller: "AdaptationController",
                     journal: "DurabilityJournal") -> dict[str, Any]:
    """The snapshot body: registry, placements, objective inputs, the
    fencing term, digest.

    ``journal`` supplies what the live objects cannot: the registered
    name of each explicit model.
    """
    view = controller.view
    instances = []
    for instance in controller.registry.instances():
        bundles = []
        for state in instance.bundles.values():
            chosen = None
            if state.chosen is not None:
                chosen = {
                    "option_name": state.chosen.option_name,
                    "variable_assignment":
                        dict(state.chosen.variable_assignment),
                    "memory_grants":
                        state.chosen.allocation.memory_grants(),
                    "placements":
                        dict(state.chosen.assignment.placements),
                    "predicted_seconds": state.chosen.predicted_seconds,
                    "chosen_at": state.chosen.chosen_at,
                }
            bundles.append({
                "model": bundle_to_dict(state.bundle),
                "last_switch_time": state.last_switch_time,
                "switch_count": state.switch_count,
                "chosen": chosen,
            })
        instances.append({
            "app_name": instance.app_name,
            "instance_id": instance.instance_id,
            "registered_at": instance.registered_at,
            "models": journal.model_names_for(instance.key),
            "bundles": bundles,
        })
    predictions = controller.live_predictions()
    return {
        "time": controller.now,
        "term": controller.term,
        "next_instance_id": controller.registry.next_instance_id,
        "topology": topology_to_dict(controller.cluster),
        "external": {
            "cpu": {host: view.external_cpu_load(host)
                    for host in controller.cluster.hostnames()
                    if view.external_cpu_load(host)},
            "links": [[link.host_a, link.host_b,
                       view.external_link_load(link.host_a, link.host_b)]
                      for link in controller.cluster.links()
                      if view.external_link_load(link.host_a,
                                                 link.host_b)],
        },
        "digest": {
            "system": controller.describe_system(),
            "objective": controller.objective.evaluate(predictions),
            "predictions": predictions,
        },
        "instances": instances,
    }


def bundle_model_key(key: Any, bundle_names: Collection[str]) -> str:
    """A journaled or snapshotted model key, a bundle's name.  A key
    ``<bundle>.<option>`` is a per-option model from an older log, which
    no prediction reads, so it is refused by name."""
    key = str(key)
    if key not in bundle_names and key.rpartition(".")[0] in bundle_names:
        raise RecoveryError(
            f"per-option model key {key!r}: models are keyed by bundle")
    return key


def apply_state(controller: "AdaptationController",
                journal: "DurabilityJournal",
                state: Mapping[str, Any]) -> None:
    """Load a snapshot body into an empty controller.

    Rebuilds instances, bundles, chosen configurations and models through
    the controller's own state edits, and the external-load objective
    inputs — without touching the decision log or the flight recorder,
    which hold the *live* history, not the recovered baseline.  Finishes
    by re-verifying the snapshot's digest.
    """
    registry = controller.registry
    if len(registry) != 0:
        raise RecoveryError("apply_state requires an empty controller")
    with _decoding("snapshot body"):
        controller.cluster.kernel.advance_to(float(state["time"]))
        for data in state.get("instances", []):
            instance = AppInstance(
                app_name=str(data["app_name"]),
                instance_id=int(data["instance_id"]),
                registered_at=float(data["registered_at"]))
            registry.adopt(instance)
            for bundle_data in data.get("bundles", []):
                bundle_state = controller.add_bundle(
                    instance, bundle_from_dict(bundle_data["model"]))
                if bundle_data.get("last_switch_time") is not None:
                    bundle_state.last_switch_time = float(
                        bundle_data["last_switch_time"])
                bundle_state.switch_count = int(bundle_data["switch_count"])
                chosen = bundle_data.get("chosen")
                if chosen is not None:
                    controller.place_configuration(
                        instance, bundle_state,
                        candidate_from_dict(bundle_state, chosen),
                        chosen_at=float(chosen["chosen_at"]))
            models = dict(data.get("models") or {})
            for model_key, model_name in models.items():
                model_key = bundle_model_key(model_key, instance.bundles)
                controller.attach_model(instance, model_key,
                                        journal.resolve_model(model_name))
                journal.note_model(instance.key, model_key, model_name)
        registry.next_instance_id = int(state["next_instance_id"])
        # The fencing term; a snapshot that predates the key has none.
        term = int(state.get("term", 0))
        if term:
            controller.note_term(term)
        external = state.get("external") or {}
        for host, load in dict(external.get("cpu") or {}).items():
            controller.view.set_external_cpu_load(str(host), float(load))
        for host_a, host_b, flows in external.get("links") or []:
            controller.view.set_external_link_load(str(host_a), str(host_b),
                                                   float(flows))
        _verify_digest(controller, state.get("digest") or {})


def _verify_digest(controller: "AdaptationController",
                   digest: Mapping[str, Any]) -> None:
    """The snapshot's own self-check: rebuilt state must match exactly.

    The predictions are read from the prediction cache, which builds them
    as :meth:`~AdaptationController.predict_all` would, so this is the
    restore's one full prediction pass: the first replayed commit then
    advances the cache instead of rebuilding it.
    """
    if not digest:
        return
    system = controller.describe_system()
    if system != list(digest.get("system", [])):
        raise RecoveryError(
            "snapshot digest mismatch: rebuilt placements differ "
            f"({system!r} != {digest.get('system')!r})")
    predictions = controller.live_predictions()
    recorded = {str(k): float(v) for k, v in
                dict(digest.get("predictions") or {}).items()}
    if not _close_map(predictions, recorded):
        raise RecoveryError(
            "snapshot digest mismatch: rebuilt predictions differ")
    objective = controller.objective.evaluate(predictions)
    if abs(objective - float(digest.get("objective", objective))) > 1e-9:
        raise RecoveryError(
            "snapshot digest mismatch: rebuilt objective differs")


def _close_map(left: Mapping[str, float], right: Mapping[str, float],
               tolerance: float = 1e-9) -> bool:
    if set(left) != set(right):
        return False
    return all(abs(left[key] - right[key]) <= tolerance for key in left)

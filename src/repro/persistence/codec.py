"""Serialization between controller state and strict-JSON documents.

The durability layer never pickles live objects.  Everything on disk is
plain JSON built from primitives, and the decode side *re-derives* the
derived objects: a chosen configuration is stored as its RSL bundle text
plus ``(option, variables, grants, placements)`` and reconstructed
through :func:`~repro.allocation.instantiate.instantiate_option` — the
same deterministic path the optimizer used to build it, so the restored
``ConcreteDemands`` is equal by construction.

Snapshots additionally embed a *digest* (``describe_system`` lines, the
objective, ``predict_all``) computed when the snapshot was written;
recovery recomputes all three after rebuilding state and refuses to
proceed on any mismatch (:class:`~repro.errors.RecoveryError`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping

from repro.allocation.instantiate import instantiate_option
from repro.allocation.matcher import Assignment
from repro.cluster.topology import Cluster
from repro.controller.optimizer import Candidate
from repro.controller.registry import AppInstance, BundleState
from repro.errors import RecoveryError
from repro.rsl import build_bundle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController
    from repro.persistence.journal import DurabilityJournal

__all__ = ["topology_to_dict", "cluster_from_topology", "candidate_to_dict",
           "candidate_from_dict", "controller_state", "apply_state"]


# -- cluster topology --------------------------------------------------------

def topology_to_dict(cluster: Cluster) -> dict[str, Any]:
    """The cluster's shape and availability as a JSON document."""
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
    links = []
    for link in cluster.links():
        links.append({
            "host_a": link.host_a,
            "host_b": link.host_b,
            "bandwidth_mbps": link.bandwidth_mbps,
            "latency_seconds": link.latency_seconds,
        })
    return {"nodes": nodes, "links": links}


def cluster_from_topology(data: Mapping[str, Any]) -> Cluster:
    """A fresh cluster (own kernel, clock at zero) from a topology dict."""
    cluster = Cluster()
    for node in data.get("nodes", []):
        built = cluster.add_node(
            node["hostname"], speed=float(node["speed"]),
            memory_mb=float(node["memory_mb"]), os=str(node["os"]),
            attributes=dict(node.get("attributes") or {}))
        if not node.get("available", True):
            built.fail()
    for link in data.get("links", []):
        cluster.add_link(link["host_a"], link["host_b"],
                         bandwidth_mbps=float(link["bandwidth_mbps"]),
                         latency_seconds=float(link["latency_seconds"]))
    return cluster


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
    """The snapshot body: registry, placements, objective inputs, digest.

    ``journal`` supplies what the live objects cannot: the original RSL
    text of each bundle and the registered name of each explicit model.
    """
    view = controller.view
    instances = []
    for instance in controller.registry.instances():
        bundles = []
        for bundle_name, state in instance.bundles.items():
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
                "name": bundle_name,
                "rsl": journal.bundle_rsl(instance.key, bundle_name),
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
    predictions = controller.predict_all(view)
    return {
        "time": controller.now,
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


def apply_state(controller: "AdaptationController",
                journal: "DurabilityJournal",
                state: Mapping[str, Any]) -> None:
    """Load a snapshot body into an empty controller.

    Rebuilds instances, models, bundles and chosen configurations through
    the controller's own state edits, and the external-load objective
    inputs — without touching the decision or lifecycle logs, which
    belong to the *live* history, not the recovered baseline.  Finishes
    by re-verifying the snapshot's digest.
    """
    registry = controller.registry
    if len(registry) != 0:
        raise RecoveryError("apply_state requires an empty controller")
    controller.cluster.kernel.advance_to(float(state["time"]))
    for data in state.get("instances", []):
        instance = AppInstance(
            app_name=str(data["app_name"]),
            instance_id=int(data["instance_id"]),
            registered_at=float(data["registered_at"]))
        registry.adopt(instance)
        for model_key, model_name in dict(data.get("models") or {}).items():
            controller.attach_model(instance, model_key,
                                    journal.resolve_model(model_name))
            journal.note_model(instance.key, model_key, model_name)
        for bundle_data in data.get("bundles", []):
            rsl = str(bundle_data["rsl"])
            bundle_state = controller.add_bundle(instance, build_bundle(rsl))
            journal.note_bundle(instance.key, bundle_data["name"], rsl)
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
    registry.next_instance_id = int(state["next_instance_id"])
    external = state.get("external") or {}
    for host, load in dict(external.get("cpu") or {}).items():
        controller.view.set_external_cpu_load(str(host), float(load))
    for host_a, host_b, flows in external.get("links") or []:
        controller.view.set_external_link_load(str(host_a), str(host_b),
                                               float(flows))
    _verify_digest(controller, state.get("digest") or {})


def _verify_digest(controller: "AdaptationController",
                   digest: Mapping[str, Any]) -> None:
    """The snapshot's own self-check: rebuilt state must match exactly."""
    if not digest:
        return
    system = controller.describe_system()
    if system != list(digest.get("system", [])):
        raise RecoveryError(
            "snapshot digest mismatch: rebuilt placements differ "
            f"({system!r} != {digest.get('system')!r})")
    predictions = controller.predict_all(controller.view)
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

"""Application registry: the controller's book-keeping of running apps.

Each registered application gets a system-chosen instance id (the paper's
two-part ``application.instance`` names), carries its declared bundles, the
currently chosen configuration per bundle, its allocations, and any explicit
performance models.  The registry also publishes all of it into the shared
hierarchical namespace, so paths like ``DBclient.66.where.DS.client.memory``
resolve as in Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.allocation.allocation import Allocation
from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment
from repro.errors import ControllerError
from repro.namespace import Namespace, join_path
from repro.prediction.models import PerformanceModel
from repro.rsl.model import Bundle

__all__ = ["ChosenConfiguration", "BundleState", "AppInstance",
           "ApplicationRegistry"]


@dataclass
class ChosenConfiguration:
    """What the controller currently has an app's bundle set to."""

    option_name: str
    variable_assignment: dict[str, float]
    demands: ConcreteDemands
    assignment: Assignment
    allocation: Allocation
    predicted_seconds: float
    chosen_at: float

    def describe(self) -> str:
        if self.variable_assignment:
            variables = ",".join(f"{k}={_fmt(v)}" for k, v in
                                 sorted(self.variable_assignment.items()))
            return f"{self.option_name}({variables})"
        return self.option_name


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


@dataclass
class BundleState:
    """One bundle of one application instance."""

    bundle: Bundle
    chosen: ChosenConfiguration | None = field(init=False, default=None)
    last_switch_time: float | None = field(init=False, default=None)
    switch_count: int = field(init=False, default=0)

    def granularity_allows_switch(self, now: float) -> bool:
        """Whether enough time has passed since the last option switch."""
        if self.chosen is None or self.last_switch_time is None:
            return True
        option = self.bundle.option_named(self.chosen.option_name)
        if option.granularity is None:
            return True
        return (now - self.last_switch_time
                >= option.granularity.min_interval_seconds)


@dataclass
class AppInstance:
    """One running harmonized application."""

    app_name: str
    instance_id: int
    registered_at: float
    bundles: dict[str, BundleState] = field(init=False, default_factory=dict)
    models: dict[str, PerformanceModel] = field(init=False,
                                                default_factory=dict)
    ended: bool = field(init=False, default=False)
    #: Registry key and namespace root: ``app.instance``.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = f"{self.app_name}.{self.instance_id}"

    def bundle_of_option(self, option_name: str) -> str:
        """The first bundle declaring ``option_name``."""
        for bundle_name, state in self.bundles.items():
            if any(option.name == option_name
                   for option in state.bundle.options):
                return bundle_name
        raise ControllerError(
            f"{self.key}: no bundle contains option {option_name!r}")

    def bundle_state(self, bundle_name: str) -> BundleState:
        if bundle_name not in self.bundles:
            raise ControllerError(
                f"{self.key}: unknown bundle {bundle_name!r}")
        return self.bundles[bundle_name]


class ApplicationRegistry:
    """All currently registered application instances."""

    def __init__(self, namespace: Namespace | None = None):
        self.namespace = namespace or Namespace()
        self._instances: dict[str, AppInstance] = {}
        # A plain integer (not itertools.count) so the durability layer
        # can snapshot and restore the id sequence exactly.
        self._next_id = 1

    @property
    def next_instance_id(self) -> int:
        """The id the next registration will receive (snapshot state)."""
        return self._next_id

    @next_instance_id.setter
    def next_instance_id(self, value: int) -> None:
        self._next_id = int(value)

    def register(self, app_name: str, now: float,
                 resume_key: str | None = None) -> AppInstance:
        """Create an instance with a fresh system-chosen id.

        ``resume_key`` is a rejoining client's previous ``app.instance``
        name: when that instance is still registered under the same
        application name, it is returned as-is — re-registration after a
        reconnect dedupes instead of leaking a second instance.  A stale
        or mismatched resume key falls through to a fresh registration.
        """
        if resume_key is not None:
            existing = self._instances.get(resume_key)
            if existing is not None and existing.app_name == app_name \
                    and not existing.ended:
                return existing
        instance = AppInstance(app_name=app_name,
                               instance_id=self._next_id,
                               registered_at=now)
        self._next_id += 1
        self._instances[instance.key] = instance
        return instance

    def adopt(self, instance: AppInstance) -> None:
        """Re-admit a fully-built instance (snapshot restore path)."""
        if instance.key in self._instances:
            raise ControllerError(
                f"instance {instance.key!r} already registered")
        self._instances[instance.key] = instance
        self._next_id = max(self._next_id, instance.instance_id + 1)

    def add_bundle(self, instance: AppInstance, bundle: Bundle) -> BundleState:
        if bundle.bundle_name in instance.bundles:
            raise ControllerError(
                f"{instance.key}: bundle {bundle.bundle_name!r} already set up")
        state = BundleState(bundle=bundle)
        instance.bundles[bundle.bundle_name] = state
        return state

    def find(self, key: str) -> AppInstance | None:
        """Non-raising lookup (lease bookkeeping probes liberally)."""
        return self._instances.get(key)

    def remove(self, instance: AppInstance) -> None:
        """Drop an instance, releasing every allocation it still holds."""
        instance.ended = True
        for state in instance.bundles.values():
            if state.chosen is not None:
                state.chosen.allocation.release()
                state.chosen = None
        self._instances.pop(instance.key, None)
        if self.namespace.exists(instance.key):
            self.namespace.delete(instance.key)

    def instances(self) -> list[AppInstance]:
        """Active instances in registration order (the paper's greedy
        optimizer walks them in this order)."""
        return list(self._instances.values())

    def instance(self, key: str) -> AppInstance:
        if key not in self._instances:
            raise ControllerError(f"unknown application instance {key!r}")
        return self._instances[key]

    def __len__(self) -> int:
        return len(self._instances)

    # -- namespace publication -------------------------------------------------

    def publish_choice(self, instance: AppInstance, bundle_name: str,
                       memory_grants: Mapping[str, float] | None = None,
                       ) -> None:
        """Write the chosen configuration into the shared namespace.

        Produces the Section 3.2 layout, e.g. for instance 66 of DBclient
        choosing data shipping::

            DBclient.66.where.DS.client.memory = 32
            DBclient.66.where.DS.client.hostname = "c1"
            DBclient.66.where.option = "DS"
        """
        state = instance.bundle_state(bundle_name)
        chosen = state.chosen
        if chosen is None:
            return
        leaves: list[tuple[str, float | str]] = [
            ("option", chosen.option_name)]
        for name, value in chosen.variable_assignment.items():
            leaves.append((f"variables.{name}", value))
        option = chosen.option_name
        grants = memory_grants or {}
        for demand in chosen.demands.nodes:
            hostname = chosen.assignment.hostname_of(demand.local_name)
            # Bracketed replica names are one namespace component.
            node_root = f"{option}.{demand.local_name}"
            leaves.append((f"{node_root}.hostname", hostname))
            granted = grants.get(f"{demand.local_name}.memory",
                                 demand.memory_min_mb)
            leaves.append((f"{node_root}.memory", granted))
            if demand.seconds is not None:
                leaves.append((f"{node_root}.seconds", demand.seconds))
        for index, link in enumerate(chosen.demands.links):
            link_root = f"{option}.link{index}"
            leaves.append((f"{link_root}.endpoints",
                           f"{link.endpoint_a}-{link.endpoint_b}"))
            leaves.append((f"{link_root}.megabytes", link.total_mb))
        # Replacing the whole subtree clears a previous option's stale
        # resources.
        self.namespace.replace(join_path(instance.key, bundle_name), leaves)

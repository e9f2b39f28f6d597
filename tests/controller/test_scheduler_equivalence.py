"""Coalesced reevaluation must reproduce the serial oracle exactly.

The scheduler changes *when* sweeps run, never *what* they decide: the
greedy policy's decisions depend only on current controller state, so one
batched sweep after a burst of admissions must land in exactly the state
N inline sweeps would have.  This test drives the same 48-application
admission sequence through both modes and compares final placements,
chosen options, and the objective value bit-for-bit.  Inline admission
on the same 32-node room must also stay sane below and above the size
at which the room fills: every app placed, memory never oversubscribed.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, CoalescingScheduler

APP_COUNT = 48


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def two_option_rsl(index):
    return f"""
harmonyBundle App{index} size {{
    {{small {{node n {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
            {{communication 4}}}}}}
"""


def final_state(controller):
    """Everything a client could observe: options, placements, objective."""
    placements = {}
    for instance in controller.registry.instances():
        for bundle_name, state in instance.bundles.items():
            chosen = state.chosen
            placements[(instance.key, bundle_name)] = (
                None if chosen is None else
                (chosen.option_name,
                 tuple(sorted(chosen.assignment.placements.items()))))
    return placements, controller.current_objective()


def admit_all(controller, scheduler=None, batch_every=8,
              app_count=APP_COUNT):
    """The shared admission sequence, optionally coalesced."""
    for index in range(app_count):
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance, two_option_rsl(index))
        if scheduler is not None and index % batch_every == batch_every - 1:
            # A quiescence window elapsed mid-burst.
            scheduler.run_pending(force=True)
    if scheduler is not None:
        scheduler.run_pending(force=True)
    return controller


def make_controller():
    cluster = Cluster.full_mesh([f"n{i}" for i in range(32)],
                                memory_mb=256.0)
    return AdaptationController(cluster)


def test_coalesced_matches_serial_oracle():
    serial = admit_all(make_controller())

    coalesced_controller = make_controller()
    scheduler = CoalescingScheduler(coalesced_controller,
                                    coalesce_window=0.05, max_delay=0.5,
                                    clock=FakeClock())
    coalesced = admit_all(coalesced_controller, scheduler=scheduler)

    serial_placements, serial_objective = final_state(serial)
    batch_placements, batch_objective = final_state(coalesced)

    assert batch_placements == serial_placements
    assert batch_objective == pytest.approx(serial_objective, abs=1e-9)
    # Every app actually got configured (the comparison is not vacuous).
    assert len(serial_placements) == APP_COUNT
    assert all(value is not None for value in serial_placements.values())
    # And the coalesced run really did batch: far fewer sweeps than apps.
    assert scheduler.batches_run == APP_COUNT // 8
    assert scheduler.requests_coalesced == APP_COUNT


def test_single_terminal_batch_also_matches():
    """Even one sweep covering the whole burst converges identically."""
    serial = admit_all(make_controller())
    coalesced_controller = make_controller()
    scheduler = CoalescingScheduler(coalesced_controller,
                                    coalesce_window=0.05, max_delay=0.5,
                                    clock=FakeClock())
    coalesced = admit_all(coalesced_controller, scheduler=scheduler,
                          batch_every=APP_COUNT)
    assert final_state(coalesced) == final_state(serial)
    assert scheduler.batches_run == 1


@pytest.mark.parametrize("app_count", [4, 24])
def test_inline_admission_places_every_app_within_memory(app_count):
    """While the room gives every app two nodes (2 x apps <= 32) each
    one gets the fast ``large`` option; beyond that the controller
    degrades by choosing ``small`` and sharing, never by failing, and
    the worst response stays far below serialized execution."""
    controller = admit_all(make_controller(), app_count=app_count)
    placements, _objective = final_state(controller)
    assert len(placements) == app_count
    assert None not in placements.values()
    for node in controller.cluster.nodes():
        assert node.memory.reserved_mb <= node.memory.total_mb + 1e-9
    if app_count * 2 <= 32:
        assert {option for option, _ in placements.values()} == {"large"}
    assert max(controller.predict_all(controller.view).values()) < \
        60 * app_count

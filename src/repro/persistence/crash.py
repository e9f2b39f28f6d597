"""Process-level crash injection for the durability layer.

The transport-level :mod:`repro.api.faults` schedules drop and delay
*messages*; here the injected fault is the death of the controller process
itself, modeled as an exception thrown from inside the write-ahead log's
append path.  Crashes land at the three interesting boundaries of an
append:

* ``BEFORE_APPEND`` — the event happened in memory but nothing reached
  disk (the classic lost-tail crash);
* ``TORN_APPEND``  — a prefix of the record's bytes reached disk (torn
  write; recovery must truncate it);
* ``AFTER_APPEND`` — the record is durable but the process died before
  answering the client (recovery must not double-apply on retry).

:class:`SimulatedCrash` deliberately does **not** subclass
:class:`~repro.errors.HarmonyError`: nothing in the server or controller
may catch and absorb it, exactly as nothing catches ``SIGKILL``.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CrashPoint", "CrashSchedule", "ScriptedCrashSchedule",
           "SimulatedCrash"]


class SimulatedCrash(Exception):
    """The injected death of the controller process.

    Intentionally outside the :class:`~repro.errors.HarmonyError`
    hierarchy so ``except HarmonyError`` handlers (the server's message
    loop, the CLI) cannot swallow it — a crash kills everything.
    """

    def __init__(self, point: "CrashPoint", append_index: int):
        super().__init__(
            f"simulated controller crash ({point.value}) at WAL append "
            f"#{append_index}")
        self.point = point
        self.append_index = append_index


class CrashPoint(Enum):
    """Where, relative to one WAL append, the process dies."""

    BEFORE_APPEND = "before-append"
    TORN_APPEND = "torn-append"
    AFTER_APPEND = "after-append"


class CrashSchedule:
    """Decides whether append number ``index`` (0-based) is fatal."""

    def decide(self, index: int) -> CrashPoint | None:
        raise NotImplementedError


class ScriptedCrashSchedule(CrashSchedule):
    """Exact crash placement: ``{append_index: CrashPoint}``.

    The kill-at-any-point recovery suite iterates every append index of a
    scenario with each :class:`CrashPoint` in turn.
    """

    def __init__(self, script: dict[int, CrashPoint]):
        self.script = dict(script)

    def decide(self, index: int) -> CrashPoint | None:
        return self.script.get(index)

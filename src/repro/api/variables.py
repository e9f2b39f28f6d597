"""Harmony variables: the knobs the controller turns inside applications.

From the paper's Section 5: applications declare variables with
``harmony_add_variable``; "New values for Harmony variables are buffered
until a flushPendingVars() call is made.  This call sends all pending
changes to the application processes.  Inside the application, an I/O event
handler function is called when the Harmony process sends variable updates.
The updates are then applied to the Harmony variables.  The application
process must periodically check the values of these variables and take
appropriate action."

Client side, :class:`HarmonyVariable` holds the live value the application
polls.  Server side, :class:`PendingVariableBuffer` accumulates per-client
changes until flushed.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import ProtocolError

__all__ = ["VariableType", "HarmonyVariable", "VariableTable",
           "PendingVariableBuffer"]


class VariableType(enum.Enum):
    """Declared type of a Harmony variable."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type, raising on mismatch."""
        try:
            if self is VariableType.INT:
                return int(value)
            if self is VariableType.FLOAT:
                return float(value)
            return str(value)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"cannot coerce {value!r} to {self.value}") from exc


class HarmonyVariable:
    """One application-side tunable value.

    The paper's C API returns a pointer the application dereferences; the
    Python analogue is this object's :attr:`value`.  ``changed`` is set when
    the server updates the variable and cleared when the application calls
    :meth:`consume` — the polling pattern for phase-boundary adaptation.
    """

    def __init__(self, name: str, default: Any,
                 var_type: VariableType = VariableType.FLOAT):
        self.name = name
        self.var_type = var_type
        self._value = var_type.coerce(default)
        self._changed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def changed(self) -> bool:
        """True when an update arrived since the last :meth:`consume`."""
        return self._changed

    def consume(self) -> Any:
        """Read the value and acknowledge the change flag."""
        self._changed = False
        return self._value

    def apply_update(self, value: Any) -> None:
        """Server-pushed assignment (applications should not call this)."""
        self._value = self.var_type.coerce(value)
        self._changed = True

    def __repr__(self) -> str:
        return (f"HarmonyVariable({self.name!r}, {self._value!r}, "
                f"{self.var_type.value})")


class VariableTable:
    """The client library's registry of declared variables."""

    def __init__(self) -> None:
        self._variables: dict[str, HarmonyVariable] = {}
        self._on_update: list[Callable[[dict[str, Any]], None]] = []

    def declare(self, name: str, default: Any,
                var_type: VariableType = VariableType.FLOAT,
                ) -> HarmonyVariable:
        if name in self._variables:
            raise ProtocolError(f"variable {name!r} already declared")
        variable = HarmonyVariable(name, default, var_type)
        self._variables[name] = variable
        return variable

    def get(self, name: str) -> HarmonyVariable:
        if name not in self._variables:
            raise ProtocolError(f"variable {name!r} not declared")
        return self._variables[name]

    def exists(self, name: str) -> bool:
        return name in self._variables

    def names(self) -> list[str]:
        return sorted(self._variables)

    def apply_updates(self, updates: dict[str, Any]) -> list[str]:
        """Apply a server batch; returns the names actually changed.

        Unknown names are ignored (the server may push resource variables
        the application chose not to declare) — but observers still see the
        full batch.
        """
        applied: list[str] = []
        for name, value in updates.items():
            variable = self._variables.get(name)
            if variable is not None:
                variable.apply_update(value)
                applied.append(name)
        for observer in list(self._on_update):
            observer(dict(updates))
        return applied

    def on_update(self, observer: Callable[[dict[str, Any]], None],
                  ) -> Callable[[], None]:
        """Register the application's I/O-event-handler analogue."""
        self._on_update.append(observer)

        def unsubscribe() -> None:
            if observer in self._on_update:
                self._on_update.remove(observer)

        return unsubscribe


class PendingVariableBuffer:
    """Server-side buffer of un-flushed variable changes, per client.

    Matches the paper's ``flushPendingVars()`` contract: successive
    ``stage`` calls for the same variable coalesce to the newest value;
    :meth:`flush` drains the buffer in one update message per client.
    A held batch is therefore bounded by the client's variable names: a
    client unreachable through many reconfiguration waves holds the
    newest value of each name, all from the latest decision.

    >>> buffer = PendingVariableBuffer()
    >>> buffer.stage("app", "a", 1)
    >>> buffer.stage("app", "b", 2)
    >>> buffer.stage("app", "a", 3)
    >>> buffer.pending_for("app")
    {'a': 3, 'b': 2}
    """

    def __init__(self) -> None:
        self._pending: dict[str, dict[str, Any]] = {}
        #: Highest generation staged per client (delivery-order stamps:
        #: the server drops a batch older than what the client already
        #: received rather than applying updates out of order).
        self._generations: dict[str, int] = {}

    def stage(self, client_id: str, name: str, value: Any,
              generation: int = 0) -> None:
        self._pending.setdefault(client_id, {})[name] = value
        if generation > self._generations.get(client_id, 0):
            self._generations[client_id] = generation

    def stage_many(self, client_id: str, updates: dict[str, Any],
                   generation: int = 0) -> None:
        for name, value in updates.items():
            self.stage(client_id, name, value, generation=generation)

    def pending_for(self, client_id: str) -> dict[str, Any]:
        return dict(self._pending.get(client_id, {}))

    def flush(self, send: Callable[[str, dict[str, Any], int], None],
              ready: Callable[[str], bool]) -> int:
        """Send every client its coalesced batch; returns batches sent.

        ``send(client_id, updates, generation)`` gets the batch's newest
        staged generation, so the caller can order deliveries.

        ``ready`` gates delivery per client: a client that is not ready
        — say, disconnected but within its lease — keeps its batch
        staged, still coalescing with later changes, until a flush finds
        it ready again or :meth:`discard` drops it.  This is what makes
        updates produced during a disconnect window survive until the
        client rejoins.
        """
        pending, self._pending = self._pending, {}
        generations, self._generations = self._generations, {}
        sent = 0
        for client_id, updates in pending.items():
            if not updates:
                continue
            generation = generations.get(client_id, 0)
            if not ready(client_id):
                # Re-stage under anything newly staged by `send` callbacks.
                held = self._pending.setdefault(client_id, {})
                for name, value in updates.items():
                    held.setdefault(name, value)
                if generation > self._generations.get(client_id, 0):
                    self._generations[client_id] = generation
                continue
            send(client_id, updates, generation)
            sent += 1
        return sent

    def discard(self, client_id: str) -> None:
        self._pending.pop(client_id, None)
        self._generations.pop(client_id, None)

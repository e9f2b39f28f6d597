"""The application <-> Harmony interface (paper Figures 5 and 6).

Client library (:mod:`repro.api.client`), server (:mod:`repro.api.server`),
Harmony variables with buffered flush (:mod:`repro.api.variables`), and two
transports — in-process for simulated experiments, TCP for the real
prototype architecture.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read, so
#: a client loads no server, controller or asyncio.
_EXPORTS = {
    "HarmonyClient": "repro.api.client",
    "set_default_client": "repro.api.client",
    "harmony_startup": "repro.api.client",
    "harmony_bundle_setup": "repro.api.client",
    "harmony_add_variable": "repro.api.client",
    "harmony_wait_for_update": "repro.api.client",
    "harmony_end": "repro.api.client",
    "HarmonyServer": "repro.api.server",
    "HarmonySession": "repro.api.server",
    "DEFAULT_PORT": "repro.api.server",
    "AsyncHarmonyServer": "repro.api.aio",
    "AsyncioTransport": "repro.api.aio",
    "HarmonyWireProtocol": "repro.api.aio",
    "Transport": "repro.api.transport",
    "InProcessTransport": "repro.api.transport",
    "TcpTransport": "repro.api.transport",
    "connected_pair": "repro.api.transport",
    "HarmonyVariable": "repro.api.variables",
    "VariableTable": "repro.api.variables",
    "VariableType": "repro.api.variables",
    "PendingVariableBuffer": "repro.api.variables",
    "RetryPolicy": "repro.api.retry",
    "FaultAction": "repro.api.faults",
    "FaultSchedule": "repro.api.faults",
    "SeededFaultSchedule": "repro.api.faults",
    "ScriptedFaultSchedule": "repro.api.faults",
    "FaultStats": "repro.api.faults",
    "FaultyTransport": "repro.api.faults",
    "encode_message": "repro.api.protocol",
    "FrameDecoder": "repro.api.protocol",
    "make_message": "repro.api.protocol",
    "HEARTBEAT": "repro.api.protocol",
    "HEARTBEAT_ACK": "repro.api.protocol",
    "LEASE_EXPIRED": "repro.api.protocol",
    "CONTROLLER_MOVED": "repro.api.protocol",
    "REPL_HELLO": "repro.api.protocol",
    "REPL_ACK": "repro.api.protocol",
    "REPL_RECORDS": "repro.api.protocol",
    "REPL_SNAPSHOT": "repro.api.protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

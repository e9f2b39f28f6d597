"""Simulated meta-computing environment.

This package stands in for the paper's IBM SP-2 testbed: a process-based
discrete-event kernel (:mod:`repro.cluster.kernel`), fair-share CPU and link
models (:mod:`repro.cluster.resources`), nodes and links with reservation
accounting, topology queries, and background-load injection.
"""

from repro.cluster.kernel import (
    AllOf,
    Event,
    Interrupted,
    Kernel,
    Process,
    Timeout,
)
from repro.cluster.link import SimLink
from repro.cluster.load import BackgroundCpuLoad, LoadPhase
from repro.cluster.node import MemoryAccount, SimNode
from repro.cluster.resources import FairShareServer, Store
from repro.cluster.topology import Cluster

__all__ = [
    "Kernel", "Event", "Timeout", "Process", "AllOf", "Interrupted",
    "FairShareServer", "Store",
    "SimNode", "MemoryAccount", "SimLink", "Cluster",
    "LoadPhase", "BackgroundCpuLoad",
]

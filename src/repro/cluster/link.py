"""Simulated network links.

A :class:`SimLink` is a bidirectional pipe between two hostnames with a
bandwidth (MB/s) shared fairly among concurrent transfers and a fixed
propagation latency.  Bandwidth *reservations* (what the matcher hands out)
are tracked separately from instantaneous usage, mirroring how Harmony
decrements available resources as applications are matched.
"""

from __future__ import annotations

from repro.cluster.kernel import Event, Kernel
from repro.cluster.resources import FairShareServer
from repro.errors import AllocationError, SimulationError

__all__ = ["SimLink"]


class SimLink:
    """One network link in the simulated cluster."""

    def __init__(self, kernel: Kernel, host_a: str, host_b: str,
                 bandwidth_mbps: float, latency_seconds: float = 0.0):
        if bandwidth_mbps <= 0:
            raise SimulationError(
                f"link {host_a}--{host_b}: bandwidth must be positive")
        if latency_seconds < 0:
            raise SimulationError(
                f"link {host_a}--{host_b}: latency must be non-negative")
        self.kernel = kernel
        self.host_a = host_a
        self.host_b = host_b
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_seconds = latency_seconds
        #: Built by the first transfer: a controller-side cluster only
        #: ever *reserves* bandwidth, and a full mesh has n**2/2 links.
        self._pipe: FairShareServer | None = None
        self._reserved_mbps = 0.0
        self._reservations: dict[str, float] = {}

    # -- data transfer -------------------------------------------------------

    @property
    def pipe(self) -> FairShareServer:
        if self._pipe is None:
            self._pipe = FairShareServer(
                self.kernel, capacity=self.bandwidth_mbps,
                name=f"link:{self.host_a}--{self.host_b}")
        return self._pipe

    @property
    def active_transfers(self) -> int:
        """Transfers in flight (zero, pipe unbuilt, if none ever ran)."""
        return 0 if self._pipe is None else self._pipe.active_jobs

    def transfer(self, megabytes: float) -> Event:
        """Move ``megabytes`` across the link; completion event as result.

        Concurrent transfers share the bandwidth fairly; every transfer also
        pays the propagation latency once.
        """
        if megabytes < 0:
            raise SimulationError(f"negative transfer size {megabytes}")
        if self.latency_seconds == 0:
            return self.pipe.submit(megabytes)
        done = self.kernel.event()
        inner = self.pipe.submit(megabytes)

        def after_transfer(event: Event) -> None:
            tail = self.kernel.timeout(self.latency_seconds, event.value)
            tail.add_callback(lambda ev: done.succeed(
                ev.value + self.latency_seconds))

        inner.add_callback(after_transfer)
        return done

    # -- reservations ----------------------------------------------------------

    @property
    def available_mbps(self) -> float:
        return self.bandwidth_mbps - self._reserved_mbps

    def reserve(self, holder: str, mbps: float) -> None:
        """Reserve bandwidth for ``holder``; additive across calls."""
        if mbps < 0:
            raise SimulationError(f"negative bandwidth reservation {mbps}")
        if mbps > self.available_mbps + 1e-9:
            raise AllocationError(
                f"bandwidth reservation of {mbps} MB/s exceeds available "
                f"{self.available_mbps} MB/s on {self.host_a}--{self.host_b}")
        self._reserved_mbps += mbps
        self._reservations[holder] = self._reservations.get(holder, 0.0) + mbps

    def release(self, holder: str) -> float:
        """Release all bandwidth held by ``holder``; returns the amount."""
        amount = self._reservations.pop(holder, 0.0)
        self._reserved_mbps -= amount
        return amount

    def connects(self, host_a: str, host_b: str) -> bool:
        """Whether this link joins the two hostnames (either direction)."""
        return {self.host_a, self.host_b} == {host_a, host_b}

    def __repr__(self) -> str:
        return (f"SimLink({self.host_a!r} -- {self.host_b!r}, "
                f"{self.bandwidth_mbps} MB/s)")

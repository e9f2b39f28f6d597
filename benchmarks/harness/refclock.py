"""Reference-speed timing: CPU/wait split scaled by an interleaved kernel.

This host's speed wanders by tens of percent on a sub-second scale, so a
raw wall or CPU time does not repeat.  Every timed segment is therefore
split, from outside the code under test, into CPU (the harness process
plus, over TCP, the server process) and *wait* (everything else), and
the CPU part is rescaled by a frozen reference kernel run just before
and just after the segment::

    cpu_ref = (cpu_harness + cpu_server) * K_REF_MS / k_local
    op_ref  = cpu_ref + wait - (cpu_ref - cpu) * min(1, wait / cpu)

``k_local`` is the mean of the two neighbouring kernel readings, taken on
the thread CPU clock so that preemption cannot inflate them.  Results
are "reference-speed ms": the time the work would take on a machine
where the kernel takes exactly ``K_REF_MS``.  Wait is timers and socket
wake-ups, which do not speed up with the CPU, so it is added unscaled.

The last term is for CPU work that ran *while a timer was pending*.
Today the server computes a sweep for 15 ms while the 40 ms delayed-ACK
timer that holds its reply is already running: a faster host shortens
the CPU and lengthens the wait by as much, and the segment takes 43 ms
at any speed.  From outside only the sum is visible, so the share of
the CPU assumed to have overlapped a timer is ``min(1, wait / cpu)``:
none where nothing waited, all of it where the wait is at least as long
as the work, and for that share the CPU is left as measured.  Without
the term the same server read 57 to 68 ms as the host's speed moved.

In-process workloads have no wait: there ``wall - cpu`` is preemption
and is reported on the side instead of being added.

The kernel, ``K_REF_MS`` and the formula are part of the benchmark's
definition.  :func:`kernel_fingerprint` hashes them; a unit test pins
the hash, so changing one is a deliberate re-baseline, never an accident.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass

#: The kernel's duration, in ms, on the reference machine.
K_REF_MS = 0.40

_KERNEL_DOC = {
    "type": "bundle_ok", "bundle_name": "size", "option": "large",
    "variables": {"workerNodes": 2.0, "bufferMB": 24.0},
    "placements": {"n%d" % i: "p0n%d" % (i % 4) for i in range(8)},
    "metrics": [{"name": "app.Pod0.%d.latency" % i, "latest": i * 0.5,
                 "count": i} for i in range(6)],
}


class _Cell:
    __slots__ = ("name", "load", "links")

    def __init__(self, name, load, links):
        self.name = name
        self.load = load
        self.links = links

    def cost(self, scale):
        return self.load * scale + len(self.links)


def kernel():
    """The frozen reference workload (stdlib only, about 0.4 ms).

    Shaped like the code under test — JSON framing, tuple-keyed dict
    inserts, keyed sorts, method calls on ``__slots__`` objects,
    generator reductions, dotted-name splitting — because a kernel of
    that shape tracks the host's speed for this code better than
    arithmetic does.  Returns a checksum so the work cannot be skipped.
    """
    check = 0
    for _ in range(3):
        text = json.dumps(_KERNEL_DOC, sort_keys=True)
        doc = json.loads(text)
        table = {}
        for i in range(24):
            host = "n%d" % i
            for j in range(3):
                table[(host, j)] = i * j
        cells = [_Cell("n%d" % i, (i * 7) % 11, doc["placements"])
                 for i in range(32)]
        ranked = sorted(cells, key=lambda cell: (cell.cost(1.5), cell.name))
        low = min(cell.cost(2.0) for cell in cells)
        total = sum(cell.load for cell in cells)
        joined = ".".join("app.Pod0.3.size.option".split(".")[1:])
        check += (len(text) + len(table) + low + total + len(joined)
                  + len(ranked))
    return check


#: What :func:`kernel` must return; a different value means it was edited.
KERNEL_CHECKSUM = 2706.0


def kernel_fingerprint() -> str:
    """sha256 over the kernel, its data, ``K_REF_MS`` and the formula."""
    parts = [inspect.getsource(kernel), inspect.getsource(_Cell),
             json.dumps(_KERNEL_DOC, sort_keys=True), repr(K_REF_MS),
             inspect.getsource(scale_segment)]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def server_cpu_clock(pid: int):
    """A reader of another process's CPU clock, in ns, all threads.

    Linux ``clock_getcpuclockid``: the clock id of process ``pid`` is
    ``(~pid << 3) | 2`` (``CPUCLOCK_SCHED``, process-wide).
    """
    clock_id = (~pid << 3) | 2
    return lambda: time.clock_gettime_ns(clock_id)


def scale_segment(wall_ns: int, cpu_harness_ns: int, cpu_server_ns: int,
                  k_local_ms: float, in_process: bool,
                  kernel_inside_ns: int = 0) -> "Segment":
    """The scaling formula, on plain numbers (see the module docstring).

    ``kernel_inside_ns`` is harness CPU spent on kernel runs *inside* the
    segment (a long set-up interleaves them): it is not the program's
    work, so it is left out of the CPU that is scaled, but it did occupy
    the processor, so it is not wait either.
    """
    scale = K_REF_MS / k_local_ms
    idle_ms = max(0, wall_ns - cpu_harness_ns - cpu_server_ns) / 1e6
    wait_ms = 0.0 if in_process else idle_ms
    cpu_ms = (cpu_harness_ns - kernel_inside_ns + cpu_server_ns) / 1e6
    overlapped = min(1.0, wait_ms / cpu_ms) if cpu_ms > 0 else 0.0
    return Segment(
        raw_ms=wall_ns / 1e6,
        raw_cpu_ms=cpu_ms,
        ref_ms=cpu_ms * scale + wait_ms
        - (cpu_ms * scale - cpu_ms) * overlapped,
        harness_cpu_ms=(cpu_harness_ns - kernel_inside_ns) / 1e6 * scale,
        server_cpu_ms=cpu_server_ns / 1e6 * scale,
        wait_ms=wait_ms,
        preempt_ms=idle_ms - wait_ms)


@dataclass
class Segment:
    """One timed stretch (or a sum of them), in reference-speed ms."""

    #: Wall and CPU time as the clocks read them, unscaled.
    raw_ms: float = 0.0
    raw_cpu_ms: float = 0.0
    #: The segment's duration at reference speed (``op_ref`` above).
    ref_ms: float = 0.0
    harness_cpu_ms: float = 0.0
    server_cpu_ms: float = 0.0
    wait_ms: float = 0.0
    preempt_ms: float = 0.0

    @property
    def cpu_ms(self) -> float:
        return self.harness_cpu_ms + self.server_cpu_ms

    def add(self, other: "Segment") -> None:
        self.raw_ms += other.raw_ms
        self.raw_cpu_ms += other.raw_cpu_ms
        self.ref_ms += other.ref_ms
        self.harness_cpu_ms += other.harness_cpu_ms
        self.server_cpu_ms += other.server_cpu_ms
        self.wait_ms += other.wait_ms
        self.preempt_ms += other.preempt_ms


class RefClock:
    """Times segments against the interleaved kernel.

    ``server_cpu`` reads the server process's CPU clock (``None`` for an
    in-process workload).  The clock arguments exist so the unit tests
    can drive the formula with fake clocks.
    """

    def __init__(self, server_cpu=None, *, wall=time.perf_counter_ns,
                 cpu=time.process_time_ns, kernel_cpu=time.thread_time_ns,
                 run_kernel=kernel):
        self._wall = wall
        self._cpu = cpu
        self._kernel_cpu = kernel_cpu
        self._run_kernel = run_kernel
        self.kernel_readings: list[float] = []
        self._inside: list[float] = []
        self._inside_ns = 0
        self._start = (0, 0, 0)
        self._lap = None
        #: The stretch after the last :meth:`lap` of the last segment.
        self.last_lap = Segment()
        self.set_server(server_cpu)
        self.tick()

    def set_server(self, server_cpu) -> None:
        """Switch between an in-process workload (``None``) and a server."""
        self._server_cpu = server_cpu if server_cpu is not None \
            else (lambda: 0)
        self.in_process = server_cpu is None

    def tick(self) -> float:
        """Run the kernel once; returns (and remembers) its reading, ms."""
        start = self._kernel_cpu()
        check = self._run_kernel()
        spent = self._kernel_cpu() - start
        if check != KERNEL_CHECKSUM:
            raise RuntimeError(f"reference kernel returned {check!r}")
        reading = spent / 1e6
        self._inside.append(reading)
        self._inside_ns += spent
        self.kernel_readings.append(reading)
        return reading

    def begin(self) -> None:
        """Open a segment; the last kernel reading is its "before"."""
        self._inside = self._inside[-1:]
        self._inside_ns = 0
        self._lap = None
        self._start = (self._wall(), self._cpu(), self._server_cpu())

    def lap(self) -> None:
        """Mark a point inside the open segment without running the kernel.

        :meth:`end` then also returns, as :attr:`last_lap`, the stretch
        from this mark to the end, scaled by the same ``k_local``.
        """
        self._lap = (self._wall(), self._cpu(), self._server_cpu())

    def end(self) -> Segment:
        """Close the segment and run the kernel as its "after".

        ``k_local`` is the mean of the readings before, after and — when
        the caller ticked during a long segment — inside it.
        """
        server, cpu, wall = self._server_cpu(), self._cpu(), self._wall()
        wall0, cpu0, server0 = self._start
        inside_ns = self._inside_ns
        self.tick()
        k_local = sum(self._inside) / len(self._inside)
        if self._lap is not None:
            lap_wall, lap_cpu, lap_server = self._lap
            self.last_lap = scale_segment(
                wall - lap_wall, cpu - lap_cpu, server - lap_server,
                k_local, self.in_process)
        return scale_segment(wall - wall0, cpu - cpu0, server - server0,
                             k_local, self.in_process, inside_ns)


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The ``q``-quantile (0 < q < 1) by nearest rank.

    Refuses (``ValueError``) when fewer than ``min_beyond`` samples lie
    beyond the returned one: a tail percentile read off a handful of
    samples is the maximum under another name and does not repeat.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    beyond = len(ordered) - 1 - rank
    if q > 0.5 and beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has only {beyond} "
            f"beyond it; need {min_beyond}")
    return ordered[rank]

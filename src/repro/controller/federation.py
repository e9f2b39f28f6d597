"""Hierarchical controller federation: N shards under a root arbiter.

The paper's Harmony process is a single server, and PR 6 (partitioned
sweeps) and PR 9 (replication) both kept it that way — every session
still funnels through one controller.  This module scales *out* instead:
sessions are sharded across N controller workers by consistent hash on
the application name, under a root arbiter that

* answers ``shard_lookup`` for connecting clients (the shard directory),
* owns cross-shard resources — hosts claimed by more than one shard are
  arbiter-owned and pinned to their first claimant, so a rebalance never
  moves a session whose placement straddles shards, and
* periodically rebalances, moving whole sessions between shards.

Each shard is an ordinary :class:`~repro.api.server.HarmonyServer` over
its own :class:`~repro.controller.controller.AdaptationController` and
(optionally) its own per-shard durability journal directory — shard
crash/recovery is the existing WAL/snapshot stack, unchanged.

Cross-shard handoff composes two machines that already exist: the origin
shard *evicts* the session while exporting a descriptor
(:meth:`~repro.api.server.HarmonyServer.begin_handoff`), the target
shard *adopts* it under the original key
(:meth:`~repro.api.server.HarmonyServer.adopt_handoff`), and the client
— answered with a retryable ``shard_moved`` redirect modeled on PR 9's
``controller_moved`` — reconnects to the target and rejoins with its
``resume_key``, replaying its bundles against the new shard's resources.

Known race, by design: between the origin's ``begin_handoff`` and the
target's ``adopt_handoff`` there is a microseconds-wide window in which
a redirected client could re-register on the target before the adoption
lands (it would register fresh instead of resuming).  In-process the
two halves run back to back inside :meth:`Federation.move_session`
while the client needs a full network round trip to even learn the
redirect, so the window is unreachable in practice; a cross-process
arbiter would close it by adopting before tombstoning.

This federation is in-process multi-worker: N servers on N ports inside
one process (the CLI's ``serve --shards N``).  Cross-process federation
needs only a wire codec for the handoff descriptor — the protocol
vocabulary (``shard_moved``, ``shard_lookup``, ``shard_map``) is already
in place.  See docs/federation.md.
"""

from __future__ import annotations

import bisect
import threading
import zlib
from typing import TYPE_CHECKING, Any, Callable

from repro.controller.controller import AdaptationController
from repro.errors import ControllerError
from repro.obs.flightrec import EVENT_HANDOFF, EVENT_REBALANCE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The server imports the controller package; ours goes the other
    # way only at runtime, inside the constructors below.
    from repro.api.server import HarmonyServer

__all__ = ["ShardMap", "RootArbiter", "ControllerShard", "Federation",
           "shard_hash"]


def shard_hash(key: str) -> int:
    """The federation's stable 32-bit hash (``zlib.crc32``).

    Deliberately *not* Python's builtin ``hash()``, which varies per
    process with ``PYTHONHASHSEED`` — shard placement must agree across
    every process that ever computes it.
    """
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ShardMap:
    """Consistent-hash ring mapping application names to shard indexes.

    Each shard contributes ``vnodes`` points to the ring; a key is owned
    by the first point clockwise from its hash.  Virtual nodes smooth
    the load split, and consistent hashing keeps most assignments stable
    when the shard count changes.

    >>> shard_map = ShardMap(["h:1", "h:2", "h:3", "h:4"])
    >>> 0 <= shard_map.shard_for("app-17") < 4
    True
    >>> shard_map.shard_for("app-17") == shard_map.shard_for("app-17")
    True
    """

    def __init__(self, addresses: list[str], vnodes: int = 64):
        if not addresses:
            raise ControllerError("a shard map needs at least one shard")
        if vnodes < 1:
            raise ControllerError("vnodes must be >= 1")
        self.addresses = list(addresses)
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for index in range(len(self.addresses)):
            for vnode in range(vnodes):
                points.append((shard_hash(f"shard-{index}#{vnode}"), index))
        points.sort()
        self._hashes = [point[0] for point in points]
        self._owners = [point[1] for point in points]

    def __len__(self) -> int:
        return len(self.addresses)

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (first ring point clockwise)."""
        position = bisect.bisect_left(self._hashes, shard_hash(key))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]

    def address_of(self, index: int) -> str:
        return self.addresses[index]

    def to_payload(self) -> list[dict[str, Any]]:
        """The wire form for ``shard_map`` replies."""
        return [{"index": index, "address": address}
                for index, address in enumerate(self.addresses)]


class RootArbiter:
    """The federation's root: shard directory plus cross-shard resources.

    Holds the :class:`ShardMap`, the explicit per-key assignment
    overrides created by handoffs (an assignment always wins over the
    hash), and the host-claim table: every shard claims the hostnames
    its cluster serves, and a host claimed by two or more shards is
    *cross-shard* — arbiter-owned, pinned to its first claimant, and a
    reason :meth:`Federation.rebalance` refuses to move sessions placed
    on it.
    """

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map
        self._assignments: dict[str, int] = {}
        self._host_claims: dict[str, list[int]] = {}
        self._lock = threading.Lock()

    # -- host ownership ------------------------------------------------------

    def claim_hosts(self, shard_index: int,
                    hostnames: list[str]) -> None:
        """A shard declares the hosts its cluster reaches."""
        with self._lock:
            for hostname in hostnames:
                claims = self._host_claims.setdefault(hostname, [])
                if shard_index not in claims:
                    claims.append(shard_index)

    @property
    def cross_shard_hosts(self) -> frozenset[str]:
        """Hosts reachable from more than one shard (arbiter-owned)."""
        with self._lock:
            return frozenset(host for host, claims
                             in self._host_claims.items()
                             if len(claims) > 1)

    def host_owner(self, hostname: str) -> int | None:
        """The shard a (cross-shard) host is pinned to: first claimant."""
        with self._lock:
            claims = self._host_claims.get(hostname)
            return claims[0] if claims else None

    # -- session placement ---------------------------------------------------

    def assign(self, key: str, shard_index: int) -> None:
        """Record an explicit placement (a handoff moved ``key``)."""
        with self._lock:
            self._assignments[key] = shard_index

    def forget(self, key: str) -> None:
        with self._lock:
            self._assignments.pop(key, None)

    def assignment_count(self) -> int:
        with self._lock:
            return len(self._assignments)

    def shard_for(self, app_name: str | None = None,
                  resume_key: str | None = None) -> int:
        """Resolve a session to its shard.

        An explicit assignment (from a handoff) wins; otherwise the
        consistent hash of the application name decides.  A
        ``resume_key`` is ``app_name.instance_id`` — its name half
        hashes identically to the original registration.
        """
        with self._lock:
            if resume_key is not None and resume_key in self._assignments:
                return self._assignments[resume_key]
        if resume_key is not None and app_name is None:
            app_name = str(resume_key).rsplit(".", 1)[0]
        if app_name is None:
            raise ControllerError(
                "shard lookup needs an app_name or resume_key")
        return self.shard_map.shard_for(str(app_name))

    def lookup(self, app_name: str | None = None,
               resume_key: str | None = None) -> dict[str, Any]:
        """The ``shard_lookup`` answer: full map plus the resolved owner."""
        index = self.shard_for(app_name=app_name, resume_key=resume_key)
        return {"shards": self.shard_map.to_payload(),
                "leader": self.shard_map.address_of(index)}


class ControllerShard:
    """One federation worker: a controller, its server, its journal."""

    def __init__(self, index: int, controller: AdaptationController,
                 server: HarmonyServer, journal=None,
                 journal_dir: str | None = None):
        self.index = index
        self.controller = controller
        self.server = server
        self.journal = journal
        self.journal_dir = journal_dir
        #: ``host:port``, set once the front end binds (see
        #: :meth:`Federation.serve`).
        self.address: str | None = None

    @property
    def session_count(self) -> int:
        return len(self.controller.registry)


class Federation:
    """N sharded controller workers under one root arbiter.

    ``controller_factory(index)`` builds each shard's controller — each
    call must return a *fresh* controller over its own cluster replica
    (shards do not share mutable cluster state).  With ``directory``
    set, every shard journals under ``<directory>/shard-<index>`` using
    the existing WAL/snapshot stack unchanged.

    Serving is front-end agnostic: :meth:`serve` takes a callable that
    binds one :class:`HarmonyServer` and returns its ``(host, port)`` —
    ``lambda s: s.serve_tcp(port=0)`` for the threaded front end, or a
    wrapper over the asyncio front end / the test fixtures.  The arbiter
    server binds last and answers ``shard_lookup`` from then on.
    """

    def __init__(self, controller_factory: Callable[[int],
                                                    AdaptationController],
                 shard_count: int, *,
                 directory: str | None = None,
                 lease_seconds: float | None = None,
                 vnodes: int = 64,
                 server_kwargs: dict[str, Any] | None = None,
                 journal_kwargs: dict[str, Any] | None = None,
                 arbiter_controller: AdaptationController | None = None):
        from repro.api.server import HarmonyServer

        if shard_count < 1:
            raise ControllerError("federation needs at least one shard")
        self.vnodes = vnodes
        self.shards: list[ControllerShard] = []
        server_kwargs = dict(server_kwargs or {})
        for index in range(shard_count):
            controller = controller_factory(index)
            journal = None
            journal_dir = None
            if directory is not None:
                import os

                from repro.persistence import DurabilityJournal

                journal_dir = os.path.join(directory, f"shard-{index}")
                os.makedirs(journal_dir, exist_ok=True)
                kwargs = dict(journal_kwargs or {"fsync": "never"})
                journal = DurabilityJournal(journal_dir, **kwargs)
                journal.attach(controller)
            server = HarmonyServer(controller,
                                   lease_seconds=lease_seconds,
                                   **server_kwargs)
            self.shards.append(ControllerShard(index, controller, server,
                                               journal=journal,
                                               journal_dir=journal_dir))
        if arbiter_controller is None:
            arbiter_controller = self._default_arbiter_controller()
        self.arbiter_server = HarmonyServer(arbiter_controller)
        self.arbiter_address: str | None = None
        self.shard_map: ShardMap | None = None
        self.arbiter: RootArbiter | None = None
        self.handoffs = 0
        self.rebalances = 0
        self._rebalance_thread: threading.Thread | None = None
        self._rebalance_stop: threading.Event | None = None

    @staticmethod
    def _default_arbiter_controller() -> AdaptationController:
        # The arbiter never places applications; a one-node cluster is
        # enough to host its server (status queries, shard lookups).
        from repro.cluster.topology import Cluster

        return AdaptationController(
            Cluster.full_mesh(["arbiter0"], memory_mb=1.0))

    # -- serving -------------------------------------------------------------

    def serve(self, start: Callable[[HarmonyServer],
                                    tuple[str, int]]) -> str:
        """Bind every shard, then the arbiter; returns the arbiter address.

        ``start(server)`` must bind one server and return ``(host,
        port)``.  Once every shard has an address the shard map is
        sealed, the arbiter starts answering ``shard_lookup``, and each
        shard claims its cluster's hostnames (overlaps become
        arbiter-owned cross-shard hosts).
        """
        if self.arbiter is not None:
            raise ControllerError("federation is already serving")
        for shard in self.shards:
            host, port = start(shard.server)
            shard.address = f"{host}:{port}"
        host, port = start(self.arbiter_server)
        self.arbiter_address = f"{host}:{port}"
        self.shard_map = ShardMap(
            [shard.address for shard in self.shards], vnodes=self.vnodes)
        self.arbiter = RootArbiter(self.shard_map)
        for shard in self.shards:
            self.arbiter.claim_hosts(
                shard.index,
                [node.hostname
                 for node in shard.controller.cluster.nodes()])
        self.arbiter_server.shard_router = self.arbiter
        return self.arbiter_address

    def shard_for(self, app_name: str | None = None,
                  resume_key: str | None = None) -> ControllerShard:
        """The shard that owns (or would own) a session."""
        self._require_serving()
        index = self.arbiter.shard_for(app_name=app_name,
                                       resume_key=resume_key)
        return self.shards[index]

    def shard_owning(self, key: str) -> ControllerShard | None:
        """The shard whose registry actually holds ``key`` right now."""
        for shard in self.shards:
            try:
                instance = shard.controller.registry.instance(key)
            except ControllerError:
                continue
            if not instance.ended:
                return shard
        return None

    # -- handoff and rebalance ----------------------------------------------

    def move_session(self, key: str, target_index: int) -> bool:
        """Hand one session from its current shard to ``target_index``.

        Atomic in-process: the origin's export/evict/tombstone and the
        target's adoption run back to back, so the client's next request
        — wherever it lands — either reaches the origin's ``shard_moved``
        redirect or resumes directly on the target.  Returns ``False``
        when the key is unknown, already on the target, or mid-teardown.
        """
        self._require_serving()
        if not 0 <= target_index < len(self.shards):
            raise ControllerError(f"no shard {target_index}")
        target = self.shards[target_index]
        origin = self.shard_owning(key)
        if origin is None or origin.index == target_index:
            return False
        assert target.address is not None
        descriptor = origin.server.begin_handoff(key, target.address)
        if descriptor is None:
            return False
        target.server.adopt_handoff(descriptor)
        self.arbiter.assign(key, target_index)
        self.handoffs += 1
        controller = self.arbiter_server.controller
        controller.metrics.increment("federation.handoffs", controller.now)
        origin.controller.flight_recorder.record(
            EVENT_HANDOFF, client=key, origin=origin.index,
            target=target_index)
        return True

    def movable(self, shard: ControllerShard, key: str) -> bool:
        """Whether a rebalance may move ``key`` off ``shard``.

        A session placed on any arbiter-owned cross-shard host is pinned
        to that host's owner shard — moving it would double-allocate the
        host on two shards' cluster replicas.
        """
        self._require_serving()
        cross = self.arbiter.cross_shard_hosts
        if not cross:
            return True
        try:
            instance = shard.controller.registry.instance(key)
        except ControllerError:
            return False
        for state in instance.bundles.values():
            chosen = state.chosen
            if chosen is None:
                continue
            if set(chosen.assignment.hostnames()) & cross:
                return False
        return True

    def rebalance(self, max_moves: int = 8) -> int:
        """Even out session counts: move from fullest to emptiest shard.

        Stops when the spread is ≤ 1 session, nothing movable remains,
        or ``max_moves`` is reached.  Returns the number of sessions
        moved.
        """
        self._require_serving()
        moves = 0
        while moves < max_moves:
            ranked = sorted(self.shards,
                            key=lambda s: (s.session_count, s.index))
            least, most = ranked[0], ranked[-1]
            if most.session_count - least.session_count <= 1:
                break
            candidate = None
            for instance in most.controller.registry.instances():
                if not instance.ended and self.movable(most, instance.key):
                    candidate = instance.key
                    break
            if candidate is None:
                break
            if not self.move_session(candidate, least.index):
                break
            moves += 1
        if moves:
            self.rebalances += 1
            controller = self.arbiter_server.controller
            controller.metrics.increment("federation.rebalances",
                                         controller.now)
            controller.flight_recorder.record(EVENT_REBALANCE, moves=moves)
        return moves

    def start_rebalancer(self, period_seconds: float = 5.0) -> None:
        """Run :meth:`rebalance` periodically on a background thread."""
        if self._rebalance_thread is not None \
                and self._rebalance_thread.is_alive():
            return
        stop = threading.Event()
        self._rebalance_stop = stop

        def loop() -> None:
            while not stop.wait(period_seconds):
                self.rebalance()

        self._rebalance_thread = threading.Thread(
            target=loop, name="federation-rebalancer", daemon=True)
        self._rebalance_thread.start()

    def stop_rebalancer(self) -> None:
        thread = self._rebalance_thread
        if self._rebalance_stop is not None:
            self._rebalance_stop.set()
        if thread is not None and thread.is_alive() \
                and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._rebalance_thread = None
        self._rebalance_stop = None

    # -- lifecycle -----------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Per-shard session counts plus federation-wide counters."""
        payload: dict[str, Any] = {
            "arbiter": self.arbiter_address,
            "shards": [{"index": shard.index, "address": shard.address,
                        "sessions": shard.session_count}
                       for shard in self.shards],
            "handoffs": self.handoffs,
            "rebalances": self.rebalances,
        }
        if self.arbiter is not None:
            payload["cross_shard_hosts"] = sorted(
                self.arbiter.cross_shard_hosts)
            payload["assignments"] = self.arbiter.assignment_count()
        return payload

    def stop(self, stop_servers: bool = False) -> None:
        """Stop the rebalancer (and, optionally, every shard server).

        Front ends started by an external factory (the test fixtures,
        the asyncio server) are owned by their starter; pass
        ``stop_servers=True`` only when the federation's servers were
        bound with ``serve_tcp`` and nothing else will stop them.
        """
        self.stop_rebalancer()
        if stop_servers:
            for shard in self.shards:
                shard.server.stop()
            self.arbiter_server.stop()

    def _require_serving(self) -> None:
        if self.arbiter is None or self.shard_map is None:
            raise ControllerError(
                "federation is not serving yet (call serve() first)")

"""Transports carrying protocol messages between client library and server.

Two implementations with identical semantics:

* :class:`InProcessTransport` — a synchronously-dispatched pair of message
  endpoints.  Used by the simulated experiments (everything runs in one
  thread on the simulated clock) and by most tests.
* :class:`TcpTransport` — a real socket with a reader thread, speaking the
  length-prefixed JSON framing of :mod:`repro.api.protocol`.  This is the
  paper's prototype architecture: the Harmony process listens on a
  well-known port; inside the application an I/O event handler applies
  variable updates as they arrive.

The framing codec itself (``encode_message`` + :class:`FrameDecoder`)
lives in :mod:`repro.api.protocol` and is shared with the server's asyncio
front end (:mod:`repro.api.aio`), so the bytes on the wire are identical
whichever side is threaded — ``docs/wire-protocol.md`` is the normative
spec.  A :class:`TcpTransport` client talks to either server unchanged.
"""

from __future__ import annotations

import errno
import socket
import struct
import threading
from typing import Any, Callable

from repro.api.protocol import FrameDecoder, encode_message
from repro.errors import ProtocolError, TransportError

__all__ = ["Transport", "InProcessTransport", "TcpTransport",
           "connected_pair"]

Receiver = Callable[[dict[str, Any]], None]


class Transport:
    """Interface: send messages, receive via callback, close."""

    def send(self, message: dict[str, Any]) -> None:
        raise NotImplementedError

    def set_send_timeout(self, timeout: float | None) -> None:
        """Bound how long :meth:`send` may block (best effort).

        The default is a no-op: in-process delivery cannot stall, and
        the asyncio endpoint is already non-blocking behind a bounded
        write queue.  :class:`TcpTransport` implements a real bound so
        one peer that stopped reading cannot wedge the sending thread
        (the replication primary arms this on every standby link).
        """

    def set_receiver(self, receiver: Receiver) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def close_after_flush(self) -> None:
        """Close without discarding what :meth:`send` already accepted.

        The default is :meth:`close`: in-process delivery is synchronous,
        and the asyncio endpoint's close already flushes before its FIN.
        """
        self.close()

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class InProcessTransport(Transport):
    """One endpoint of an in-memory connection.

    Messages sent before the peer installs a receiver are queued and
    delivered on installation, so connection setup has no ordering hazard.
    Delivery is synchronous: ``send`` runs the peer's receiver inline, which
    matches the single-threaded discrete-event experiments.
    """

    def __init__(self) -> None:
        self._peer: "InProcessTransport | None" = None
        self._receiver: Receiver | None = None
        self._backlog: list[dict[str, Any]] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: dict[str, Any]) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        if self._peer is None:
            raise TransportError("transport has no peer")
        # Round-trip through the codec so in-process runs exercise the same
        # serialization constraints as TCP runs.
        encode_message(message)
        self._peer._deliver(message)

    def _deliver(self, message: dict[str, Any]) -> None:
        if self._closed:
            return
        if self._receiver is None:
            self._backlog.append(message)
        else:
            self._receiver(message)

    def set_receiver(self, receiver: Receiver) -> None:
        self._receiver = receiver
        backlog, self._backlog = self._backlog, []
        for message in backlog:
            receiver(message)

    def close(self) -> None:
        self._closed = True


def connected_pair() -> tuple[InProcessTransport, InProcessTransport]:
    """A connected (client_end, server_end) in-process transport pair."""
    client_end = InProcessTransport()
    server_end = InProcessTransport()
    client_end._peer = server_end
    server_end._peer = client_end
    return client_end, server_end


class TcpTransport(Transport):
    """A socket endpoint with a background reader thread.

    Takes ownership of ``sock`` and disables Nagle on it: every frame
    already leaves in one ``sendall``, and both ends write twice before
    reading (``report_metric``/``heartbeat`` then a request; a push then
    the reply), which with Nagle on parks the second write behind the
    peer's 40 ms delayed ACK (``docs/wire-protocol.md`` §1).
    """

    def __init__(self, sock: socket.socket):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._decoder = FrameDecoder()
        self._receiver: Receiver | None = None
        self._backlog: list[dict[str, Any]] = []
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._send_timeout: float | None = None
        self._closed = False    # no more sends
        self._released = False  # socket shut and closed
        self._address: tuple[str, int] | None = None
        self._connect_timeout: float | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: float | None = 10.0) -> "TcpTransport":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(None)
            transport = cls(sock)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        transport._address = (host, port)
        transport._connect_timeout = timeout
        return transport

    @property
    def can_redial(self) -> bool:
        """Whether this endpoint knows the address it was dialed to."""
        return self._address is not None

    def redial(self) -> "TcpTransport":
        """A fresh connection to the same server (the reconnect path).

        The old endpoint is closed first; the caller re-installs its
        receiver on the returned transport and replays its session (see
        :meth:`HarmonyClient.rejoin`).  Only endpoints created by
        :meth:`connect` know their address; accepted server-side sockets
        raise :class:`~repro.errors.TransportError`.
        """
        if self._address is None:
            raise TransportError(
                "cannot redial a transport that was not dialed")
        self.close()
        host, port = self._address
        return TcpTransport.connect(host, port,
                                    timeout=self._connect_timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def set_send_timeout(self, timeout: float | None) -> None:
        """Bound blocking sends with the kernel ``SO_SNDTIMEO`` option.

        A peer that stopped reading eventually fills both socket
        buffers and ``sendall`` would block the sending thread
        indefinitely.  ``SO_SNDTIMEO`` makes the kernel abort the
        syscall with ``EAGAIN`` once no progress was possible for
        ``timeout`` seconds; only the send direction is affected, so
        the reader thread's ``recv`` keeps blocking as before.
        """
        self._send_timeout = timeout
        value = 0.0 if timeout is None else max(timeout, 1e-3)
        sec = int(value)
        usec = int(round((value - sec) * 1_000_000))
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                                  struct.pack("ll", sec, usec))
        except OSError as exc:
            raise TransportError(
                f"cannot arm send timeout: {exc}") from exc

    def send(self, message: dict[str, Any]) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        data = encode_message(message)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except (OSError, ValueError) as exc:
            self.close()
            if (isinstance(exc, OSError)
                    and exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK)
                    and self._send_timeout is not None):
                raise TransportError(
                    f"send timed out after {self._send_timeout:.1f}s "
                    f"(peer not reading)") from exc
            raise TransportError(f"send failed: {exc}") from exc

    def set_receiver(self, receiver: Receiver) -> None:
        with self._state_lock:
            self._receiver = receiver
            backlog, self._backlog = self._backlog, []
        for message in backlog:
            receiver(message)

    def close(self) -> None:
        # Test-and-set under the lock: the caller and the reader thread
        # (at EOF) may both arrive, and exactly one releases the socket.
        with self._state_lock:
            if self._released:
                return
            self._closed = self._released = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def close_after_flush(self) -> None:
        """Half-close: the FIN queues behind every frame already sent.

        A full :meth:`close` while the peer's frames sit unread makes
        the kernel answer with a reset, which discards this end's
        unsent bytes.  Here sending stops at once, but the socket stays
        open: the reader thread drains (without dispatching) until the
        peer has read everything and closed its end, then releases it.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            self.close()

    def _read_loop(self) -> None:
        try:
            while not self._released:
                data = self._sock.recv(65536)
                if not data:
                    break
                if self._closed:
                    continue  # half-closed: drain the peer, deliver none
                for message in self._decoder.feed(data):
                    self._dispatch(message)
        except (OSError, TransportError, ProtocolError):
            # A dead socket or a garbled frame ends the connection; a
            # receiver callback's own bug must NOT be eaten here — it
            # propagates and kills the reader thread loudly.
            pass
        finally:
            self.close()

    def _dispatch(self, message: dict[str, Any]) -> None:
        with self._state_lock:
            receiver = self._receiver
            if receiver is None:
                self._backlog.append(message)
                return
        receiver(message)

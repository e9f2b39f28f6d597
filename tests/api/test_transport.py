"""Transports: in-process semantics and the real TCP path."""

import errno
import gc
import os
import socket
import threading
import time
import warnings

import pytest

from repro.api.protocol import make_message
from repro.api.transport import TcpTransport, connected_pair
from repro.errors import TransportError


class TestInProcessTransport:
    def test_send_reaches_peer_receiver(self):
        a, b = connected_pair()
        received = []
        b.set_receiver(received.append)
        a.send(make_message("end"))
        assert received == [{"type": "end"}]

    def test_messages_before_receiver_are_backlogged(self):
        a, b = connected_pair()
        a.send(make_message("end"))
        a.send(make_message("wait_for_update"))
        received = []
        b.set_receiver(received.append)
        assert [m["type"] for m in received] == ["end", "wait_for_update"]

    def test_bidirectional(self):
        a, b = connected_pair()
        got_a, got_b = [], []
        a.set_receiver(got_a.append)
        b.set_receiver(got_b.append)
        a.send(make_message("end"))
        b.send(make_message("ended"))
        assert got_b[0]["type"] == "end"
        assert got_a[0]["type"] == "ended"

    def test_send_after_close_rejected(self):
        a, _b = connected_pair()
        a.close()
        with pytest.raises(TransportError):
            a.send(make_message("end"))

    def test_unencodable_message_rejected(self):
        a, b = connected_pair()
        b.set_receiver(lambda m: None)
        with pytest.raises(Exception):
            a.send({"type": "end", "bad": object()})

    def test_closed_peer_swallows_silently(self):
        a, b = connected_pair()
        b.set_receiver(lambda m: None)
        b.close()
        a.send(make_message("end"))  # must not raise


class TestTcpTransport:
    @pytest.fixture
    def listener(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield sock
        sock.close()

    def _accept(self, listener, out):
        conn, _addr = listener.accept()
        out.append(TcpTransport(conn))

    def test_roundtrip_over_real_sockets(self, listener):
        host, port = listener.getsockname()
        server_side = []
        acceptor = threading.Thread(target=self._accept,
                                    args=(listener, server_side))
        acceptor.start()
        client = TcpTransport.connect(host, port)
        acceptor.join(timeout=5)
        server = server_side[0]

        received_at_server = []
        received_at_client = []
        event = threading.Event()
        client_event = threading.Event()

        def server_receiver(message):
            received_at_server.append(message)
            event.set()

        def client_receiver(message):
            received_at_client.append(message)
            client_event.set()

        server.set_receiver(server_receiver)
        client.set_receiver(client_receiver)

        client.send(make_message("register", app_name="DB",
                                 use_interrupts=False))
        assert event.wait(5)
        assert received_at_server[0]["app_name"] == "DB"

        server.send(make_message("registered", instance_id=1,
                                 key="DB.1"))
        assert client_event.wait(5)
        assert received_at_client[0]["key"] == "DB.1"

        client.close()
        server.close()

    def test_connect_failure_raises(self):
        with pytest.raises(TransportError):
            TcpTransport.connect("127.0.0.1", 1, timeout=0.5)

    def test_send_after_close_raises(self, listener):
        host, port = listener.getsockname()
        server_side = []
        acceptor = threading.Thread(target=self._accept,
                                    args=(listener, server_side))
        acceptor.start()
        client = TcpTransport.connect(host, port)
        acceptor.join(timeout=5)
        client.close()
        with pytest.raises(TransportError):
            client.send(make_message("end"))
        server_side[0].close()

    def test_peer_close_marks_transport_closed(self, listener):
        host, port = listener.getsockname()
        server_side = []
        acceptor = threading.Thread(target=self._accept,
                                    args=(listener, server_side))
        acceptor.start()
        client = TcpTransport.connect(host, port)
        acceptor.join(timeout=5)
        server_side[0].close()
        deadline = time.time() + 5
        while not client.closed and time.time() < deadline:
            time.sleep(0.01)
        assert client.closed

    def test_socket_is_released_once_whichever_of_eof_and_close_is_first(
            self, listener):
        """The accepted ends see EOF before their ``close()``; the dialed
        ends are closed first and their readers find out afterwards.
        Neither may keep its fd — with the collector off, so no cycle
        sweep does the closing — and ``close()`` stays idempotent."""
        host, port = listener.getsockname()

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        gc.collect()
        gc.disable()
        try:
            baseline = open_fds()
            held = []  # alive while fds are counted: no help from __del__
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                for _ in range(20):
                    client = TcpTransport.connect(host, port)
                    accepted = TcpTransport(listener.accept()[0])
                    client.close()
                    client._reader.join(timeout=5)
                    accepted._reader.join(timeout=5)  # reads EOF, exits
                    assert not client._reader.is_alive()
                    assert not accepted._reader.is_alive()
                    assert accepted.closed
                    accepted.close()
                    accepted.close()
                    held += [client, accepted]
                leaked = open_fds() - baseline
                del held, client, accepted
            unclosed = [str(w.message) for w in caught
                        if issubclass(w.category, ResourceWarning)]
        finally:
            gc.enable()
        assert leaked <= 0, f"{leaked} sockets still open"
        assert not unclosed, unclosed

    def test_option_failure_on_a_dial_is_a_connect_failure(
            self, listener, monkeypatch):
        def refuse(self, *args):
            raise OSError(errno.ENOPROTOOPT, "Protocol not available")

        monkeypatch.setattr(socket.socket, "setsockopt", refuse)
        with pytest.raises(TransportError, match="cannot connect"):
            TcpTransport.connect(*listener.getsockname())


class TestSendTimeout:
    """A peer that stops reading cannot wedge the sending thread."""

    def test_stalled_peer_times_out_and_closes(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()
        client = TcpTransport.connect(host, port)
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server_sock, _addr = listener.accept()  # accepted, never read
        client.set_send_timeout(0.2)
        big = make_message("status_report", blob="x" * (1 << 20))
        started = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            for _ in range(64):  # fill both socket buffers, then stall
                client.send(big)
        assert time.monotonic() - started < 10.0
        assert client.closed
        server_sock.close()
        listener.close()

    def test_timeout_does_not_disturb_flowing_sends(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()
        client = TcpTransport.connect(host, port)
        server_side = []
        acceptor = threading.Thread(
            target=lambda: server_side.append(
                TcpTransport(listener.accept()[0])))
        acceptor.start()
        acceptor.join(timeout=5)
        received = []
        server_side[0].set_receiver(received.append)
        client.set_send_timeout(5.0)
        for index in range(20):
            client.send(make_message("report_metric", name="m",
                                     value=float(index)))
        deadline = time.time() + 5
        while len(received) < 20 and time.time() < deadline:
            time.sleep(0.01)
        assert len(received) == 20
        client.close()
        server_side[0].close()
        listener.close()

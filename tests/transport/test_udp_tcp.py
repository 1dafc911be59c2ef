"""Tests for the raw UDP and TCP transports."""

import threading

import pytest

from repro.errors import (
    DeliveryTimeoutError,
    MessageTooLargeError,
    TransportClosedError,
)
from repro.transport.tcp import TcpListener, connect_tcp
from repro.transport.udp import MAX_DATAGRAM, UdpTransport


class TestUdp:
    def test_round_trip(self):
        with UdpTransport() as a, UdpTransport() as b:
            a.send(b.address, b"datagram")
            source, payload = b.recv(timeout=5.0)
            assert source == a.address
            assert payload == b"datagram"

    def test_max_datagram_boundary(self):
        with UdpTransport() as a, UdpTransport() as b:
            payload = b"x" * MAX_DATAGRAM
            a.send(b.address, payload)
            assert b.recv(timeout=5.0)[1] == payload

    def test_oversized_datagram_rejected(self):
        with UdpTransport() as a, UdpTransport() as b:
            with pytest.raises(MessageTooLargeError):
                a.send(b.address, b"x" * (MAX_DATAGRAM + 1))

    def test_recv_timeout(self):
        with UdpTransport() as a:
            with pytest.raises(DeliveryTimeoutError):
                a.recv(timeout=0.02)

    def test_closed_transport_rejects_io(self):
        a = UdpTransport()
        a.close()
        with pytest.raises(TransportClosedError):
            a.send(("127.0.0.1", 9), b"x")
        with pytest.raises(TransportClosedError):
            a.recv(timeout=0.1)

    def test_ephemeral_port_is_nonzero(self):
        with UdpTransport() as a:
            assert a.address[1] != 0


@pytest.fixture()
def tcp_pair():
    listener = TcpListener()
    client_holder = {}

    def connect():
        client_holder["conn"] = connect_tcp(listener.address)

    t = threading.Thread(target=connect)
    t.start()
    server_side = listener.accept(timeout=5.0)
    t.join()
    client_side = client_holder["conn"]
    yield client_side, server_side
    client_side.close()
    server_side.close()
    listener.close()


class TestTcp:
    def test_frame_round_trip(self, tcp_pair):
        client, server = tcp_pair
        client.send_frame(b"request")
        assert server.recv_frame(timeout=5.0) == b"request"
        server.send_frame(b"response")
        assert client.recv_frame(timeout=5.0) == b"response"

    def test_large_frame(self, tcp_pair):
        client, server = tcp_pair
        payload = bytes(range(256)) * 4096  # 1 MiB
        client.send_frame(payload)
        assert server.recv_frame(timeout=10.0) == payload

    def test_many_frames_preserve_order(self, tcp_pair):
        client, server = tcp_pair
        frames = [f"frame-{i}".encode() for i in range(200)]
        writer = threading.Thread(
            target=lambda: [client.send_frame(f) for f in frames]
        )
        writer.start()
        received = [server.recv_frame(timeout=5.0) for _ in frames]
        writer.join()
        assert received == frames

    def test_recv_timeout(self, tcp_pair):
        client, _ = tcp_pair
        with pytest.raises(DeliveryTimeoutError):
            client.recv_frame(timeout=0.05)

    def test_peer_close_detected(self, tcp_pair):
        client, server = tcp_pair
        client.close()
        with pytest.raises(TransportClosedError):
            server.recv_frame(timeout=5.0)

    def test_addresses_exposed(self, tcp_pair):
        client, server = tcp_pair
        assert client.peer_address == server.local_address

    def test_addresses_survive_close(self, tcp_pair):
        client, server = tcp_pair
        peer = client.peer_address
        local = client.local_address
        client.close()
        # Cached at construction: still answerable without a live fd.
        assert client.peer_address == peer
        assert client.local_address == local

    def test_repeated_timeout_skips_settimeout_syscall(self, tcp_pair):
        client, server = tcp_pair
        calls = []
        real_sock = server._sock

        class CountingSocket:
            def settimeout(self, value):
                calls.append(value)
                real_sock.settimeout(value)

            def __getattr__(self, name):
                return getattr(real_sock, name)

        server._sock = CountingSocket()
        for _ in range(5):
            client.send_frame(b"ping")
            server.recv_frame(timeout=5.0)
        # A polling receive loop reuses one timeout; only the first
        # recv_frame should have touched the socket option.
        assert calls == [5.0]

    def test_accept_timeout(self):
        with TcpListener() as listener:
            with pytest.raises(DeliveryTimeoutError):
                listener.accept(timeout=0.05)

    def test_closed_listener_rejects_accept(self):
        listener = TcpListener()
        listener.close()
        with pytest.raises(TransportClosedError):
            listener.accept(timeout=0.1)

    def test_concurrent_senders_share_connection(self, tcp_pair):
        client, server = tcp_pair
        count = 50

        def sender(tag):
            for i in range(count):
                client.send_frame(f"{tag}:{i}".encode())

        threads = [threading.Thread(target=sender, args=(n,))
                   for n in range(3)]
        for t in threads:
            t.start()
        received = [server.recv_frame(timeout=5.0)
                    for _ in range(count * 3)]
        for t in threads:
            t.join()
        for n in range(3):
            mine = [f for f in received if f.startswith(f"{n}:".encode())]
            assert mine == [f"{n}:{i}".encode() for i in range(count)]


class TestTcpNowaitSend:
    """The event loop's send: never waits, and a frame the socket could
    not take whole is finished by :meth:`flush` without tearing it."""

    def test_whole_frame_goes_out_at_once(self, tcp_pair):
        client, server = tcp_pair
        server.setblocking(False)
        assert server.send_frame_parts_nowait([b"head:", b"tail"])
        assert not server.backlogged
        assert client.recv_frame(timeout=5.0) == b"head:tail"

    def test_full_socket_backlogs_then_flush_keeps_frames_whole(
            self, tcp_pair):
        client, server = tcp_pair
        server.setblocking(False)
        frames = []
        while not server.backlogged:  # nobody reads: the socket fills
            assert len(frames) < 64, "socket never filled"
            frames.append(bytes([len(frames)]) * (1 << 20))
            sent = server.send_frame_parts_nowait([frames[-1]])
            assert sent is not server.backlogged
        # Once anything is backlogged, every later frame queues behind
        # it instead of jumping ahead on the wire.
        for tail in (b"after-1", b"after-2"):
            frames.append(tail)
            assert server.send_frame_parts_nowait([tail]) is False
        received = []
        reader = threading.Thread(target=lambda: received.extend(
            client.recv_frame(timeout=10.0) for _ in frames))
        reader.start()
        server.flush()
        reader.join(timeout=10.0)
        assert not server.backlogged
        assert received == frames

    def test_blocking_send_writes_the_backlog_first(self, tcp_pair):
        client, server = tcp_pair
        server.setblocking(False)
        frames = []
        while not server.backlogged:
            assert len(frames) < 64, "socket never filled"
            frames.append(bytes([len(frames)]) * (1 << 20))
            server.send_frame_parts_nowait([frames[-1]])
        frames.append(b"later")
        received = []
        reader = threading.Thread(target=lambda: received.extend(
            client.recv_frame(timeout=10.0) for _ in frames))
        reader.start()
        server.send_frame(b"later")
        reader.join(timeout=10.0)
        assert received == frames

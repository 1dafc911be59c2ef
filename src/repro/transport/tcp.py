"""TCP stream transport.

"A TCP/IP socket is used as the transport for communication between the
client and the server libraries" (§3.2.1).  Frames are length-prefixed
(see :mod:`~repro.transport.message`), which is all the RPC layer needs.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.errors import DeliveryTimeoutError, TransportClosedError
from repro.transport.base import StreamTransport
from repro.transport.message import (
    FrameReader,
    frame_views,
    sendmsg_all,
    sendmsg_nowait,
    write_frame_parts,
)

Address = Tuple[str, int]


class TcpConnection(StreamTransport):
    """One connected TCP socket exchanging length-prefixed frames.

    Sends are serialised by a lock so multiple threads may share the
    connection (the client library funnels every API call of an end device
    through one connection to its surrogate).

    Receives go through a persistent :class:`FrameReader`, so a timeout
    that fires mid-frame keeps the partial bytes buffered instead of
    desyncing the stream — the next ``recv_frame`` resumes exactly where
    the last one stopped.

    An event loop sends with :meth:`send_frame_parts_nowait`, which
    never waits: what the socket does not take at once is kept in a
    backlog of frame images that every later send — and :meth:`flush`
    — writes out first, whole and in order.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Addresses are immutable for a connected socket; caching them
        # keeps the properties usable (and syscall-free) after close.
        self._peer: Address = sock.getpeername()
        self._local: Address = sock.getsockname()
        self._send_lock = threading.Lock()
        #: Frame images (or the unsent tail of one, always at the head)
        #: still owed to the socket; written only under _send_lock.
        self._backlog: Deque[List[memoryview]] = deque()
        self._recv_lock = threading.Lock()
        self._reader = FrameReader()
        self._timeout: Optional[float] = sock.gettimeout()
        self._close_hook: Optional[Callable[[], None]] = None
        self._closed = False

    @property
    def peer_address(self) -> Address:
        """The remote endpoint's (host, port)."""
        return self._peer

    @property
    def local_address(self) -> Address:
        """This endpoint's (host, port)."""
        return self._local

    @property
    def raw_socket(self) -> socket.socket:
        """The underlying socket (reactor registration, diagnostics)."""
        return self._sock

    def setblocking(self, flag: bool) -> None:
        """Switch the socket's blocking mode (reactor-managed reads)."""
        self._sock.setblocking(flag)
        self._timeout = self._sock.gettimeout()

    def on_close(self, hook: Optional[Callable[[], None]]) -> None:
        """Register a callback fired once when :meth:`close` runs.

        An event loop watching this socket cannot see a *local* close —
        the kernel silently drops a closed fd from ``epoll`` with no
        event — so whoever closes the connection must tell the loop.
        The hook fires *before* the fd is released, so the owner can
        unregister it while the descriptor is still valid (no fd-reuse
        race with a newly accepted connection).
        """
        self._close_hook = hook

    def send_frame(self, payload: bytes) -> None:
        """Send one length-prefixed frame (thread-safe)."""
        self.send_frame_parts((payload,))

    def send_frame_parts(self, parts: Sequence) -> None:
        """Send one frame built from buffer slices: a single vectored
        ``sendmsg``, no user-space join (thread-safe)."""
        if self._closed:
            raise TransportClosedError("TCP connection is closed")
        with self._send_lock:
            self._write_backlog()
            write_frame_parts(self._sock, parts)

    def send_frame_parts_nowait(self, parts: Sequence) -> bool:
        """Send one frame without waiting on the socket or a sender.

        True: the whole frame is in the kernel.  False: some or all of
        it is in the backlog, and the caller must have :meth:`flush`
        run on a thread that may block.
        """
        if self._closed:
            raise TransportClosedError("TCP connection is closed")
        views = frame_views(parts)
        if not self._send_lock.acquire(blocking=False):
            self._backlog.append(views)
            return False
        try:
            if self._backlog:
                self._backlog.append(views)
                return False
            views = sendmsg_nowait(self._sock, views)
            if not views:
                return True
            # A frame another thread queued meanwhile must follow the
            # tail of this one, which is already half on the wire.
            self._backlog.appendleft(views)
            return False
        finally:
            self._send_lock.release()

    @property
    def backlogged(self) -> bool:
        """Whether a frame handed to :meth:`send_frame_parts_nowait` is
        not yet wholly in the kernel."""
        return bool(self._backlog)

    def flush(self) -> None:
        """Write out the backlog, waiting for the socket as needed."""
        if self._closed:
            raise TransportClosedError("TCP connection is closed")
        with self._send_lock:
            self._write_backlog()

    def _write_backlog(self) -> None:
        # Caller holds _send_lock.  A frame leaves the backlog only once
        # it is wholly sent, so ``backlogged`` stays true until then.
        backlog = self._backlog
        while backlog:
            sendmsg_all(self._sock, backlog[0])
            backlog.popleft()

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        """Receive one frame, waiting up to *timeout* seconds.

        A timeout mid-frame is safe: the partial frame stays buffered in
        the connection's reader and completes on a later call.
        """
        if self._closed:
            raise TransportClosedError("TCP connection is closed")
        with self._recv_lock:
            # Receive loops poll with a constant timeout; skip the
            # setsockopt syscall when it hasn't changed.
            if timeout != self._timeout:
                try:
                    self._sock.settimeout(timeout)
                except OSError as exc:
                    # Racing close(): the fd is gone.
                    raise TransportClosedError(
                        f"TCP connection is closed: {exc}"
                    ) from None
                self._timeout = timeout
            try:
                frame = self._reader.read(self._sock)
            except socket.timeout:
                raise DeliveryTimeoutError(
                    f"no TCP frame within {timeout}s"
                ) from None
            if frame is None:
                # Non-blocking socket with nothing buffered: same
                # contract as a zero-second timeout.
                raise DeliveryTimeoutError("no TCP frame available")
            return frame

    def close(self) -> None:
        """Shut down and close the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        hook, self._close_hook = self._close_hook, None
        if hook is not None:
            try:
                hook()
            except Exception:  # noqa: BLE001 - owner callback isolation
                pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener:
    """A listening socket handing out :class:`TcpConnection` objects.

    This is the substrate of the server library's "listener thread on the
    cluster ... that listens to new end devices joining" (§3.2.2).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 64, reuse_port: bool = False) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            # Accept sharding: several processes listen on the same
            # (host, port) and the kernel spreads inbound connections
            # across them by 4-tuple hash (the shard front door).
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            self._sock.bind((host, port))
            self._sock.listen(backlog)
        except OSError:
            self._sock.close()
            raise
        self._closed = False

    @property
    def address(self) -> Address:
        """The listening (host, port)."""
        return self._sock.getsockname()

    @property
    def raw_socket(self) -> socket.socket:
        """The underlying listening socket (reactor-driven accept)."""
        return self._sock

    def accept(self, timeout: Optional[float] = None) -> TcpConnection:
        """Block for the next inbound connection.

        :raises DeliveryTimeoutError: nothing connected within *timeout*.
        :raises TransportClosedError: listener closed (possibly while
            blocked in accept).
        """
        if self._closed:
            raise TransportClosedError("listener is closed")
        self._sock.settimeout(timeout)
        try:
            sock, _addr = self._sock.accept()
        except socket.timeout:
            raise DeliveryTimeoutError(
                f"no connection within {timeout}s"
            ) from None
        except OSError as exc:
            raise TransportClosedError(f"accept failed: {exc}") from exc
        return TcpConnection(sock)

    def close(self) -> None:
        """Shut down and close the socket (idempotent)."""
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "TcpListener":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def connect_tcp(address: Address, timeout: float = 10.0) -> TcpConnection:
    """Connect to *address* and return the framed connection."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(None)
    return TcpConnection(sock)

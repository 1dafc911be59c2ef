"""Packet and frame headers shared by the transports.

Two encodings live here:

* the **CLF packet header** — 16 bytes carrying type, flags, sequence
  number and fragmentation fields, prepended to every UDP datagram the
  CLF endpoint emits; and
* **stream framing** — a 4-byte big-endian length prefix used on TCP,
  with a size ceiling so a corrupt prefix cannot make the reader allocate
  gigabytes.

The stream-framing side is built for the cluster's hot path:

* sends are scatter/gather — :func:`write_frame_parts` hands the length
  prefix and any number of payload slices to ``sendmsg`` in one syscall,
  so a frame (or a whole batch of coalesced casts) crosses the socket
  without ever being joined into one intermediate buffer;
* receives go through :class:`FrameReader`, which calls ``recv_into``
  directly on an exactly-sized buffer (one kernel-to-user copy, no
  chunk list, no join) and **keeps partial state across timeouts** — a
  ``socket.timeout`` mid-frame no longer desyncs the stream, the next
  read resumes where the last one stopped.  The same reader, fed a
  non-blocking socket, returns ``None`` instead of blocking, which is
  what the reactor's event loop uses for buffered incremental decode.

Neither side is socket-specific: the reader accepts **any source with
the ``recv_into``/``fileno`` shape** — a TCP socket, or the shared-
memory ring source of :mod:`repro.transport.shm`, whose rings carry
these exact length-prefixed frames byte-for-byte.  Everything above
framing (clients, surrogates, the reactor) is transport-blind as a
result.
"""

from __future__ import annotations

import select
import socket
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import FramingError, MessageTooLargeError, TransportClosedError
from repro.obs.metrics import GLOBAL_METRICS as _metrics

# Wire-level instruments.  Frames/bytes counters live at this layer so
# every path (plain calls, casts, batch envelopes, responses) is counted
# once, where the bytes actually cross the socket; partial_reads counts
# read() calls that made progress on a frame but could not finish it —
# the back-pressure signal of a slow or bursty peer.
_FRAMES_OUT = _metrics.counter("transport.frames_out")
_BYTES_OUT = _metrics.counter("transport.bytes_out")
_FRAMES_IN = _metrics.counter("transport.frames_in")
_BYTES_IN = _metrics.counter("transport.bytes_in")
_PARTIAL_READS = _metrics.counter("transport.partial_reads")

# ---------------------------------------------------------------------------
# CLF packet header
# ---------------------------------------------------------------------------

CLF_MAGIC = 0xC1F0

#: Packet types.
PT_DATA = 1
PT_ACK = 2

#: struct layout: magic u16, type u8, flags u8, seq u32,
#:                msg_id u32, frag_index u16, frag_count u16
_CLF_HEADER = struct.Struct(">HBBIIHH")
CLF_HEADER_SIZE = _CLF_HEADER.size


@dataclass(frozen=True)
class ClfPacket:
    """One CLF packet: header fields plus payload."""

    packet_type: int
    seq: int
    msg_id: int = 0
    frag_index: int = 0
    frag_count: int = 1
    payload: bytes = b""

    def encode(self) -> bytes:
        """Serialize header + payload into one datagram."""
        header = _CLF_HEADER.pack(
            CLF_MAGIC,
            self.packet_type,
            0,
            self.seq,
            self.msg_id,
            self.frag_index,
            self.frag_count,
        )
        return header + self.payload

    @staticmethod
    def decode(data: bytes) -> "ClfPacket":
        """Parse a datagram; raises FramingError when malformed."""
        if len(data) < CLF_HEADER_SIZE:
            raise FramingError(
                f"short CLF packet: {len(data)} < {CLF_HEADER_SIZE} bytes"
            )
        magic, ptype, _flags, seq, msg_id, frag_index, frag_count = (
            _CLF_HEADER.unpack_from(data)
        )
        if magic != CLF_MAGIC:
            raise FramingError(f"bad CLF magic 0x{magic:04x}")
        if ptype not in (PT_DATA, PT_ACK):
            raise FramingError(f"unknown CLF packet type {ptype}")
        if frag_count == 0 or frag_index >= frag_count:
            raise FramingError(
                f"bad fragmentation fields {frag_index}/{frag_count}"
            )
        return ClfPacket(
            packet_type=ptype,
            seq=seq,
            msg_id=msg_id,
            frag_index=frag_index,
            frag_count=frag_count,
            payload=data[CLF_HEADER_SIZE:],
        )


# ---------------------------------------------------------------------------
# Stream framing (TCP)
# ---------------------------------------------------------------------------

_LENGTH = struct.Struct(">I")

#: Frames above this are refused on both send and receive.  Generous: the
#: largest application payload in the paper is a 7-client composite of
#: 190 KB images (~1.3 MB).
MAX_FRAME_SIZE = 64 * 1024 * 1024

#: Buffers handed to one ``sendmsg`` call.  Kernels cap the iovec count
#: (``IOV_MAX``, typically 1024); staying well under it keeps one batch
#: to one syscall without ever tripping ``EMSGSIZE``.
_IOV_CAP = 64


def _poll_wait(sock, events: int) -> None:
    """Block until *sock* is ready for *events*.  Uses ``poll`` rather
    than ``select`` so a process holding >1024 fds (a fan-out gateway,
    or a shard worker under one) can still wait on any of them."""
    poller = select.poll()
    poller.register(sock, events)
    poller.poll()


def _sendmsg_some(sock: socket.socket, views: List[memoryview],
                  flags: int = 0) -> None:
    """One vectored ``sendmsg`` from the head of *views*; the bytes the
    kernel took are dropped from *views* in place."""
    head = views[:_IOV_CAP]
    # A plain send passes only the buffers, all a socket proxy (e.g. a
    # syscall-counting wrapper) has to implement.
    sent = sock.sendmsg(head, (), flags) if flags else sock.sendmsg(head)
    done = 0
    while sent and sent >= views[done].nbytes:
        sent -= views[done].nbytes
        done += 1
    del views[:done]
    if sent:
        views[0] = views[0][sent:]


def sendmsg_all(sock: socket.socket, views: List[memoryview]) -> None:
    """Vectored send of every buffer in *views*, handling partial sends.

    Works on blocking, timeout-carrying, and non-blocking sockets: a
    would-block on a non-blocking socket waits for writability instead
    of failing (the reactor keeps server sockets non-blocking for reads;
    responses still flow through here).  A timeout or reset surfaces as
    :class:`~repro.errors.TransportClosedError`, exactly as the old
    ``sendall`` path did.
    """
    while views:
        try:
            _sendmsg_some(sock, views)
        except (BlockingIOError, InterruptedError):
            _poll_wait(sock, select.POLLOUT)
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from exc


def sendmsg_nowait(sock: socket.socket,
                   views: List[memoryview]) -> List[memoryview]:
    """Send what the kernel takes of *views* right now; never waits.

    Returns the unsent remainder (empty when everything went out).  The
    caller owns the remainder: it must go out before any other byte on
    *sock*, or the stream desyncs.
    """
    while views:
        try:
            _sendmsg_some(sock, views, socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            break
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from exc
    return views


def _as_views(parts: Sequence) -> "tuple[List[memoryview], int]":
    """Normalise bytes-likes into flat byte views; returns (views, size)."""
    views: List[memoryview] = []
    total = 0
    for part in parts:
        view = memoryview(part)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if view.nbytes:
            views.append(view)
            total += view.nbytes
    return views, total


def frame_views(parts: Sequence) -> List[memoryview]:
    """The wire image of one frame whose payload is the concatenation
    of *parts*: the length prefix, then a view of every part (nothing
    copied).  Counts the frame as sent."""
    views, total = _as_views(parts)
    if total > MAX_FRAME_SIZE:
        raise MessageTooLargeError(
            f"frame of {total} bytes exceeds {MAX_FRAME_SIZE}"
        )
    if _metrics.enabled:
        _FRAMES_OUT.value += 1
        _BYTES_OUT.value += total + _LENGTH.size
    views.insert(0, memoryview(_LENGTH.pack(total)))
    return views


def write_frame_parts(sock: socket.socket, parts: Sequence) -> None:
    """Write one frame whose payload is the concatenation of *parts*.

    The length prefix and every part go out in a single scatter/gather
    ``sendmsg`` — the payload slices are never copied or joined in user
    space.  This is the zero-copy substrate for both single frames and
    batched-cast envelopes.
    """
    sendmsg_all(sock, frame_views(parts))


def write_frame(sock: socket.socket, payload) -> None:
    """Write one length-prefixed frame to a connected socket."""
    write_frame_parts(sock, (payload,))


class FrameReader:
    """Incremental reader of length-prefixed frames with durable state.

    One instance per stream.  Each :meth:`read` call makes progress on
    exactly one frame; partial progress (half a length prefix, half a
    payload) survives both timeouts and would-blocks:

    * on a socket with a timeout, ``socket.timeout`` propagates to the
      caller but the bytes already consumed stay buffered — the next
      ``read`` resumes mid-frame instead of desyncing the stream;
    * on a non-blocking socket, ``read`` returns ``None`` when the
      kernel buffer runs dry — this is the reactor's decode loop.

    The payload is received with ``recv_into`` directly into an
    exactly-sized ``bytearray`` allocated once per frame: one
    kernel-to-user copy, no chunk accumulation, no join.  The returned
    buffer is owned by the caller (never reused), so zero-copy
    ``memoryview`` slices of it can be handed onward safely.

    The *source* argument of :meth:`read` need not be a socket — any
    object with ``recv_into`` honouring the same contract (bytes
    copied; ``BlockingIOError`` when dry; ``0`` at EOF) works, e.g.
    :class:`repro.transport.shm.RingSource` reading frames out of a
    shared-memory ring.
    """

    __slots__ = ("_limit", "_header", "_header_got", "_payload",
                 "_payload_got")

    def __init__(self, max_size: Optional[int] = None) -> None:
        self._limit = max_size
        self._header = bytearray(_LENGTH.size)
        self._header_got = 0
        self._payload: Optional[bytearray] = None
        self._payload_got = 0

    @property
    def mid_frame(self) -> bool:
        """Whether a partially-received frame is buffered."""
        return self._header_got > 0 or self._payload is not None

    def read(self, sock: socket.socket) -> Optional[bytearray]:
        """Advance on the current frame; return it once complete.

        Returns ``None`` if the socket would block (non-blocking mode).
        Raises ``socket.timeout`` (state retained), ``FramingError`` on
        an oversized length prefix, and
        :class:`~repro.errors.TransportClosedError` on EOF or reset.
        """
        while True:
            if self._payload is None:
                if self._header_got < _LENGTH.size:
                    view = memoryview(self._header)[self._header_got:]
                    count = self._recv_into(sock, view)
                    if count is None:
                        if _metrics.enabled and self._header_got:
                            _PARTIAL_READS.value += 1
                        return None
                    self._header_got += count
                    continue
                (length,) = _LENGTH.unpack(self._header)
                limit = MAX_FRAME_SIZE if self._limit is None \
                    else self._limit
                if length > limit:
                    raise FramingError(
                        f"frame length {length} exceeds limit {limit} "
                        f"(corrupt prefix or protocol skew)"
                    )
                self._payload = bytearray(length)
                self._payload_got = 0
            if self._payload_got < len(self._payload):
                view = memoryview(self._payload)[self._payload_got:]
                count = self._recv_into(sock, view)
                if count is None:
                    if _metrics.enabled:
                        _PARTIAL_READS.value += 1
                    return None
                self._payload_got += count
                continue
            frame = self._payload
            self._payload = None
            self._payload_got = 0
            self._header_got = 0
            if _metrics.enabled:
                _FRAMES_IN.value += 1
                _BYTES_IN.value += len(frame) + _LENGTH.size
            return frame

    @staticmethod
    def _recv_into(sock: socket.socket,
                   view: memoryview) -> Optional[int]:
        try:
            count = sock.recv_into(view)
        except socket.timeout:
            raise
        except (BlockingIOError, InterruptedError):
            return None
        except OSError as exc:
            raise TransportClosedError(f"recv failed: {exc}") from exc
        if count == 0:
            raise TransportClosedError("peer closed the connection")
        return count


def encode_frame_prefix(payload_size: int) -> bytes:
    """The 4-byte length prefix for a *payload_size*-byte frame.

    Writers that build outgoing frames as ``prefix + payload``
    themselves (the shared-memory ring) share this encoding instead of
    going through a socket helper, so the wire format lives in one place.
    """
    if payload_size > MAX_FRAME_SIZE:
        raise MessageTooLargeError(
            f"frame of {payload_size} bytes exceeds {MAX_FRAME_SIZE}"
        )
    return _LENGTH.pack(payload_size)


def read_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* bytes or raise on EOF/reset."""
    buffer = bytearray(count)
    got = 0
    while got < count:
        try:
            received = sock.recv_into(memoryview(buffer)[got:])
        except socket.timeout:
            raise
        except OSError as exc:
            raise TransportClosedError(f"recv failed: {exc}") from exc
        if not received:
            raise TransportClosedError("peer closed the connection")
        got += received
    return bytes(buffer)


def read_frame(sock: socket.socket,
               max_size: Optional[int] = None) -> bytes:
    """Read one length-prefixed frame (one-shot; no cross-call state).

    Stream endpoints that poll with timeouts should hold a
    :class:`FrameReader` instead — it is the desync-safe path.
    """
    reader = FrameReader(max_size=max_size)
    while True:
        frame = reader.read(sock)
        if frame is not None:
            return bytes(frame)
        _poll_wait(sock, select.POLLIN)  # non-blocking: wait for data

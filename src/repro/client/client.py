"""The end-device client library proper.

A :class:`StampedeClient` is what a program on a tentacle of the Octopus
links against.  It mirrors the cluster-side API one-for-one — "the API
calls of D-Stampede are available to a thread regardless of where it is
executing" (§3.1) — while every operation actually travels to the
device's surrogate over TCP.

Choose the personality with ``codec``:

* ``"xdr"`` — the C client library (§3.2.1, XDR marshalling);
* ``"jdr"`` — the Java client library (object-graph marshalling).

Tentacles are flaky (the whole premise of the Octopus model), so the
client is fault tolerant by default: transport failures put it in a
**degraded** state, a capped-exponential-backoff reconnect re-dials the
cluster and RESUMEs the session (the surrogate parks it for a grace
period — see ``session_grace`` on :class:`~repro.runtime.server
.StampedeServer`), and retry-safe operations are transparently
re-issued under a :class:`~repro.client.retry.RetryPolicy`.  The
``on_degraded`` / ``on_recovered`` callbacks let an application degrade
gracefully (a videoconference can drop to keyframes-only while the link
is out).  ``docs/FAULTS.md`` is the authoritative failure model.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.client.retry import RetryPolicy
from repro.client.scheduler import GLOBAL_HEARTBEATS
from repro.core.connection import ConnectionMode
from repro.core.filters import AttentionFilter
from repro.core.timestamps import (
    NEWEST,
    OLDEST,
    Timestamp,
    VirtualTime,
    is_marker,
    validate_timestamp,
)
from repro.errors import (
    ConnectionClosedError,
    ConnectionModeError,
    DuplicateTimestampError,
    NameAlreadyBoundError,
    NameNotBoundError,
    RetryExhaustedError,
    RpcTimeoutError,
    SessionResumeError,
    StampedeError,
    TransportClosedError,
    TransportError,
)
from repro.marshal import get_codec
from repro.obs import spans as _spanmod
from repro.runtime import ops
from repro.transport.base import StreamTransport
from repro.transport.tcp import connect_tcp
from repro.util import trace as tracepoints
from repro.util.logging import get_logger

_log = get_logger("client")

#: Hook applied to every freshly dialled transport (fault injection,
#: instrumentation): ``wrapper(connection) -> connection``.
TransportWrapper = Callable[[StreamTransport], StreamTransport]


class _NoopTrace:
    """Shared do-nothing context for the tracing-disabled hot path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_TRACE = _NoopTrace()


class RemoteConnection:
    """Client-side handle mirroring :class:`~repro.core.connection.Connection`.

    Produced by :meth:`StampedeClient.attach`; every method is one RPC to
    the surrogate, which performs the real container operation.
    """

    def __init__(self, client: "StampedeClient", wire_id: int,
                 container: str, mode: ConnectionMode, kind: str) -> None:
        self._client = client
        self._wire_id = wire_id
        self.container_name = container
        self.mode = mode
        self.kind = kind
        self._detached = False

    def _traced(self, op: str, **details: Any):
        """Trace context for one container operation.

        When tracing is on, the operation runs under a trace id — the
        caller's current one, or a freshly minted one — which the RPC
        layer ships in the request frame, so the surrogate's routing
        event, the container's PUT/GET and the eventual GC RECLAIM all
        join this client-side event's timeline.  When tracing is off
        this costs one attribute check (a shared no-op context, no
        generator machinery) and the frame stays old-format.
        """
        if not tracepoints.GLOBAL_TRACER.enabled:
            return _NOOP_TRACE
        return self._traced_live(op, **details)

    @contextmanager
    def _traced_live(self, op: str, **details: Any) -> Iterator[None]:
        fresh = tracepoints.current_trace_id() is None
        if fresh:
            tracepoints.set_trace_id(tracepoints.new_trace_id())
        tracepoints.trace(tracepoints.RPC, self.container_name,
                          op=op, side="client", **details)
        try:
            yield
        finally:
            if fresh:
                tracepoints.set_trace_id(None)

    # -- I/O ------------------------------------------------------------------

    def put(self, timestamp: Timestamp, value: Any, block: bool = True,
            timeout: Optional[float] = None, sync: bool = True) -> None:
        """Encode *value* with the client's codec and put it remotely.

        ``sync=False`` sends the put as a fire-and-forget cast: no round
        trip, so a streaming producer pipelines frames at wire speed.
        Errors from an async put are logged on the cluster and surface
        indirectly (the consumer never sees the timestamp); use the
        default for anything that must be confirmed.

        Fault tolerance: synchronous puts to a **channel** are retried
        under the client's retry policy — the timestamp key makes a
        replay detectable, so a ``DuplicateTimestampError`` on a retry
        is absorbed as confirmation that the first attempt landed
        (effectively exactly-once).  Puts to a **queue** have no dedup
        key and are never retried automatically (at-most-once; see
        docs/FAULTS.md).
        """
        self._require_open()
        if not self.mode.can_put:
            raise ConnectionModeError(
                f"connection to {self.container_name!r} is input-only"
            )
        validate_timestamp(timestamp)
        payload = self._client.codec.encode(value)
        args = {
            "connection_id": self._wire_id,
            "timestamp": timestamp,
            "payload": payload,
            "block": block,
            "has_timeout": timeout is not None,
            "timeout": timeout if timeout is not None else 0.0,
        }
        span_prior = None
        span_bound = False
        if _spanmod.GLOBAL_SPANS.enabled:
            # Birth of the item's provenance timeline — unless an origin
            # is already bound (a shard forwarding a device's put), in
            # which case the existing stamp rides through unchanged so
            # the e2e clock keeps ticking from the first put.
            origin = _spanmod.current_origin()
            if not origin:
                origin = time.monotonic()
                _spanmod.GLOBAL_SPANS.record(
                    _spanmod.CLIENT_PUT, self.container_name, origin,
                    at=origin)
            span_prior = _spanmod.set_context(
                (origin, self.container_name))
            span_bound = True
        try:
            with self._traced("put", ts=timestamp, sync=sync):
                if sync:
                    is_channel = self.kind == "channel"
                    self._client._call(
                        ops.OP_PUT, args, io_timeout=timeout,
                        retryable=is_channel,
                        absorb=(DuplicateTimestampError,)
                        if is_channel else (),
                    )
                else:
                    self._client._cast(ops.OP_PUT, args)
        finally:
            if span_bound:
                _spanmod.set_context(span_prior)

    def get(self, timestamp: VirtualTime = OLDEST, block: bool = True,
            timeout: Optional[float] = None) -> Tuple[Timestamp, Any]:
        """Fetch ``(timestamp, value)``; markers work exactly as locally.

        Channel gets are pure reads and retried under the retry policy;
        queue gets dequeue (destructive) and are never retried — a lost
        response frame may cost the in-flight item (at-most-once).
        """
        self._require_open()
        if not self.mode.can_get:
            raise ConnectionModeError(
                f"connection to {self.container_name!r} is output-only"
            )
        if is_marker(timestamp):
            vt_kind = ops.VT_NEWEST if timestamp is NEWEST else ops.VT_OLDEST
            wire_ts = 0
        else:
            vt_kind = ops.VT_CONCRETE
            wire_ts = validate_timestamp(timestamp)
        with self._traced("get", ts=wire_ts if vt_kind == ops.VT_CONCRETE
                          else ("newest" if vt_kind == ops.VT_NEWEST
                                else "oldest")):
            results = self._client._call(ops.OP_GET, {
                "connection_id": self._wire_id,
                "vt_kind": vt_kind,
                "timestamp": wire_ts,
                "block": block,
                "has_timeout": timeout is not None,
                "timeout": timeout if timeout is not None else 0.0,
            }, io_timeout=timeout, retryable=self.kind == "channel")
        value = self._client.codec.decode(results["payload"])
        return results["timestamp"], value

    def consume(self, timestamp: Timestamp, sync: bool = True) -> None:
        """Declare the item at *timestamp* garbage for this device."""
        self._require_open()
        args = {
            "connection_id": self._wire_id,
            "timestamp": validate_timestamp(timestamp),
        }
        with self._traced("consume", ts=timestamp, sync=sync):
            if sync:
                self._client._call(ops.OP_CONSUME, args)
            else:
                self._client._cast(ops.OP_CONSUME, args)

    def consume_until(self, timestamp: Timestamp,
                      sync: bool = True) -> None:
        """Raise this connection's interest floor to *timestamp*."""
        self._require_open()
        args = {
            "connection_id": self._wire_id,
            "timestamp": validate_timestamp(timestamp),
        }
        with self._traced("consume_until", ts=timestamp, sync=sync):
            if sync:
                self._client._call(ops.OP_CONSUME_UNTIL, args)
            else:
                self._client._cast(ops.OP_CONSUME_UNTIL, args)

    def detach(self) -> None:
        """Detach on the cluster (idempotent)."""
        if self._detached:
            return
        self._detached = True
        self._client._call(ops.OP_DETACH,
                           {"connection_id": self._wire_id})

    @property
    def detached(self) -> bool:
        """Whether this handle has been detached."""
        return self._detached

    def _require_open(self) -> None:
        if self._detached:
            raise ConnectionClosedError(
                f"connection to {self.container_name!r} is detached"
            )

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def __repr__(self) -> str:
        return (
            f"<RemoteConnection {self.container_name!r} "
            f"mode={self.mode.value} kind={self.kind}>"
        )


class StampedeClient:
    """An end device joined to a D-Stampede computation.

    Parameters
    ----------
    host, port:
        The cluster server's listen address.
    client_name:
        Diagnostic name reported to the cluster.
    codec:
        ``"xdr"`` (C personality) or ``"jdr"`` (Java personality).
    heartbeat:
        If set, the surrogate is PINGed every *heartbeat* seconds to
        keep the failure-detection lease alive (and to refresh the
        lease of every name this device registered with a TTL).  With
        reconnection enabled, the heartbeat doubles as the recovery
        driver while the application is idle.  All clients in the
        process share **one** timer thread
        (:data:`repro.client.scheduler.GLOBAL_HEARTBEATS`) — a gateway
        multiplexing hundreds of devices heartbeats them all at the
        cost of one; recovery of a degraded client runs on a transient
        thread so it never stalls the others' pings.
    on_reclaim:
        Optional callback ``(container_name, timestamp)`` invoked when the
        cluster notifies this device that an item it saw was garbage
        collected (§3.2.4); notifications are also queued for
        :meth:`take_reclaims`.
    retry:
        The :class:`~repro.client.retry.RetryPolicy` for transport
        failures.  Defaults to a modest policy (4 attempts, capped
        exponential backoff with jitter).  Pass
        :data:`~repro.client.retry.NO_RETRY` for the fail-fast seed
        behaviour.
    reconnect:
        Whether a dead connection is transparently re-dialled and the
        session RESUMEd (requires ``session_grace`` on the server for
        attach state to survive).  Default True.
    on_degraded:
        ``callback(exc)`` fired once per outage, when the connection is
        first detected dead and recovery begins.
    on_recovered:
        ``callback(resumed_connections: int)`` fired when the session is
        successfully resumed.
    transport_wrapper:
        Hook applied to every freshly dialled TCP connection; used to
        inject faults (:class:`repro.transport.faults.FaultPlan.wrap`)
        or instrumentation.
    connect:
        Optional dial factory ``() -> StreamTransport`` replacing the
        default ``connect_tcp((host, port))``.  Every (re)connect —
        including the RESUME ladder's re-dial — goes through it, so a
        factory that prefers one transport and falls back to another
        (the shard peer links dial shared memory first, loopback TCP
        second — see :mod:`repro.transport.shm`) keeps the retry,
        recovery and dedup semantics of the default path untouched.
    batching:
        Whether fire-and-forget casts (async puts/consumes) are
        coalesced into batch envelopes — one syscall and one wire frame
        for a burst of N items, at the price of up to ``batch_linger``
        of added latency per item.  Ordering is unchanged: any
        synchronous call flushes the pending batch first.  Default
        False: each cast is one frame, written on the caller's thread.
    batch_max_items, batch_max_bytes, batch_linger:
        Coalescer knobs: flush when the batch reaches this many items or
        payload bytes, or ``batch_linger`` seconds after the first item,
        whichever comes first.
    """

    def __init__(self, host: str, port: int, client_name: str = "device",
                 codec: str = "xdr", heartbeat: Optional[float] = None,
                 on_reclaim: Optional[Callable[[str, int], None]] = None,
                 rpc_timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 reconnect: bool = True,
                 on_degraded: Optional[Callable[[BaseException],
                                               None]] = None,
                 on_recovered: Optional[Callable[[int], None]] = None,
                 transport_wrapper: Optional[TransportWrapper] = None,
                 connect: Optional[
                     Callable[[], StreamTransport]] = None,
                 batching: bool = False,
                 batch_max_items: int = 64,
                 batch_max_bytes: int = 128 * 1024,
                 batch_linger: float = 0.002
                 ) -> None:
        self.codec = get_codec(codec)
        self.client_name = client_name
        self.rpc_timeout = rpc_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._address = (host, port)
        self._reconnect_enabled = reconnect
        self._transport_wrapper = transport_wrapper
        self._connect = connect
        self._batching = batching
        self._batch_max_items = batch_max_items
        self._batch_max_bytes = batch_max_bytes
        self._batch_linger = batch_linger
        self._on_degraded = on_degraded
        self._on_recovered = on_recovered
        self._user_reclaim_cb = on_reclaim
        self._reclaims: "queue.Queue[Tuple[str, int]]" = queue.Queue()
        self._closed = False
        self._state = "connected"
        self._state_lock = threading.Lock()
        self._session_lock = threading.Lock()  # single-flight reconnect
        self._rpc = self._dial()
        # The join handshake itself is not retried: a cluster that cannot
        # be reached at construction time is an application error, not
        # weather.
        hello = self._rpc.call(ops.OP_HELLO, {
            "client_name": client_name, "codec": codec,
        }, timeout=rpc_timeout)
        self.session_id = hello["session_id"]
        self.space = hello["space"]
        self._resume_token = hello["token"]
        self._heartbeat_interval = heartbeat
        self._heartbeat_handle = None
        self._recovery_lock = threading.Lock()
        self._recovery_thread: Optional[threading.Thread] = None
        if heartbeat is not None:
            self._heartbeat_handle = GLOBAL_HEARTBEATS.register(
                heartbeat, self._heartbeat_tick)

    @property
    def _heartbeat_thread(self) -> Optional[threading.Thread]:
        """The shared timer thread, while this client heartbeats on it."""
        if self._heartbeat_handle is None \
                or not self._heartbeat_handle.active:
            return None
        return GLOBAL_HEARTBEATS.thread

    @property
    def state(self) -> str:
        """``"connected"``, ``"degraded"`` (reconnecting), or
        ``"closed"``."""
        return self._state

    # -- container API -----------------------------------------------------------

    def create_channel(self, name: str, space: str = "",
                       capacity: Optional[int] = None) -> None:
        """Create a channel on the cluster (in this device's assigned
        address space unless *space* says otherwise) and register it.

        Retried under the retry policy: the system-wide-unique name is a
        natural dedup key, so a retry answered with
        ``NameAlreadyBoundError`` proves the first attempt landed and is
        absorbed (exactly-once; see docs/FAULTS.md).
        """
        self._call(ops.OP_CREATE_CHANNEL, {
            "name": name, "space": space,
            "bounded": capacity is not None,
            "capacity": capacity if capacity is not None else 0,
        }, retryable=True, absorb=(NameAlreadyBoundError,))

    def create_queue(self, name: str, space: str = "",
                     capacity: Optional[int] = None,
                     auto_consume: bool = False) -> None:
        """Create a queue on the cluster and register it (retried with
        duplicate-name absorption, like :meth:`create_channel`)."""
        self._call(ops.OP_CREATE_QUEUE, {
            "name": name, "space": space,
            "bounded": capacity is not None,
            "capacity": capacity if capacity is not None else 0,
            "auto_consume": auto_consume,
        }, retryable=True, absorb=(NameAlreadyBoundError,))

    def attach(self, container: str, mode: ConnectionMode,
               wait: Optional[float] = None,
               attention_filter: Optional["AttentionFilter"] = None
               ) -> RemoteConnection:
        """Connect to a named container; ``wait`` blocks for late names.

        *attention_filter* is a declarative
        :class:`~repro.core.filters.AttentionFilter`; it executes on the
        cluster inside this device's surrogate, so filtered-out items are
        never sent over the network.
        """
        filter_bytes = b""
        if attention_filter is not None:
            filter_bytes = self.codec.encode(attention_filter.to_spec())
        results = self._call(ops.OP_ATTACH, {
            "container": container,
            "mode": mode.value,
            "wait": wait is not None,
            "wait_timeout": wait if wait is not None else 0.0,
            "filter": filter_bytes,
        }, io_timeout=wait)
        return RemoteConnection(
            self, results["connection_id"], container, mode,
            results["kind"],
        )

    # -- name server API ------------------------------------------------------------

    def ns_register(self, name: str, kind: str,
                    metadata: Optional[dict] = None,
                    ttl: Optional[float] = None) -> None:
        """Bind *name* in the cluster's name server.

        With *ttl* (seconds) the binding is a **lease**: it must be
        refreshed or the name server purges it.  This device's heartbeat
        PINGs refresh every lease it registered, so a silently vanished
        device stops advertising within one TTL.
        """
        self._call(ops.OP_NS_REGISTER, {
            "name": name, "kind": kind,
            "metadata": self.codec.encode(metadata or {}),
            "has_ttl": ttl is not None,
            "ttl": ttl if ttl is not None else 0.0,
        }, retryable=True, absorb=(NameAlreadyBoundError,))

    def ns_unregister(self, name: str) -> None:
        """Remove a binding from the name server (retried; a replay
        answered ``NameNotBoundError`` proves the first attempt landed
        and is absorbed)."""
        self._call(ops.OP_NS_UNREGISTER, {"name": name},
                   retryable=True, absorb=(NameNotBoundError,))

    def ns_lookup(self, name: str) -> Tuple[str, str, dict]:
        """Returns ``(kind, address_space, metadata)``."""
        results = self._call(ops.OP_NS_LOOKUP, {"name": name})
        metadata = self.codec.decode(results["metadata"]) \
            if results["metadata"] else {}
        return results["kind"], results["space"], metadata

    def ns_list(self, kind: str = "") -> List[str]:
        """Bound names, optionally filtered by kind."""
        return self._call(ops.OP_NS_LIST, {"kind": kind})["names"]

    def ns_refresh(self, name: str) -> bool:
        """Refresh one leased binding by name (NS_REFRESH wire op).

        Returns False for unleased, unbound, or already-expired names —
        refreshes race expiry by design.  The heartbeat PING already
        refreshes every name this device registered; this call is for
        refreshing a *specific* lease, possibly registered by someone
        else (the shard control plane forwards per-name refreshes this
        way).
        """
        return self._call(ops.OP_NS_REFRESH, {"name": name})["refreshed"]

    # -- misc -------------------------------------------------------------------------

    def ping(self, payload: bytes = b"") -> bytes:
        """Round-trip *payload* through the surrogate (latency probe and
        lease keep-alive)."""
        return self._call(ops.OP_PING, {"payload": payload})["payload"]

    def gc_report(self) -> Tuple[int, int, int]:
        """Cluster-wide ``(sweeps, items reclaimed, bytes reclaimed)``."""
        r = self._call(ops.OP_GC_REPORT, {})
        return r["sweeps"], r["items"], r["bytes"]

    def inspect(self) -> dict:
        """Full cluster snapshot (see :mod:`repro.runtime.inspect`)."""
        results = self._call(ops.OP_INSPECT, {})
        return self.codec.decode(results["snapshot"])

    def stats(self) -> dict:
        """Live observability snapshot of the cluster (STATS wire op).

        Metrics registry plus per-container occupancy, oldest-item age
        and blocking-connection suspects.  Served off the surrogate's
        execution lanes, so it answers even while this device's own
        container operations are blocked — that is the point.
        """
        results = self._call(ops.OP_STATS, {})
        return json.loads(bytes(results["snapshot"]).decode("utf-8"))

    def shard_map(self) -> dict:
        """The cluster's shard topology (SHARD_MAP wire op).

        Returns ``{"shard_id", "shards", "peers"}``: which shard this
        connection landed on, how many shards serve the front door, and
        each shard's private peer-door address.  A single-process
        server answers ``shard_id=0, shards=1`` — no special case
        needed.  Producers use this with
        :func:`repro.runtime.shards.local_name` to place containers on
        their own shard (see docs/SCALING.md).
        """
        results = self._call(ops.OP_SHARD_MAP, {})
        raw = bytes(results["peers"]).decode("utf-8") or "{}"
        peers = {int(sid): tuple(address)
                 for sid, address in json.loads(raw).items()}
        return {"shard_id": results["shard_id"],
                "shards": results["shards"], "peers": peers}

    def trace_dump(self, max_events: int = 0,
                   clear: bool = False) -> dict:
        """Drain the cluster's trace ring (TRACE_DUMP wire op).

        Returns ``{"label", "enabled", "dropped", "recorded",
        "events"}``; the events feed
        :meth:`repro.util.trace.Tracer.merge` alongside local dumps.
        ``max_events`` keeps only the newest N; ``clear`` empties the
        remote ring afterwards (hence not idempotent — never retried).
        """
        results = self._call(ops.OP_TRACE_DUMP, {
            "max_events": max_events, "clear": clear,
        })
        return json.loads(bytes(results["events"]).decode("utf-8"))

    def span_dump(self, max_spans: int = 0, clear: bool = False) -> dict:
        """Drain the cluster's provenance-span ring (SPAN_DUMP wire op).

        Returns ``{"label", "enabled", "recorded", "dropped", "hops",
        "e2e", "spans"}`` — hop-offset and end-to-end information-latency
        histograms plus the raw span ring.  On a sharded server the
        accepting shard fans out and merges every peer's dump (spans
        gain an ``origin_label`` naming their shard), so the timeline
        :func:`repro.obs.spans.render_timeline` draws is cluster-wide.
        ``clear`` empties the remote rings afterwards (hence not
        idempotent — never retried).
        """
        results = self._call(ops.OP_SPAN_DUMP, {
            "max_spans": max_spans, "clear": clear,
        })
        return json.loads(bytes(results["spans"]).decode("utf-8"))

    def prof_dump(self, clear: bool = False) -> dict:
        """Drain the cluster's sampling profiler (PROF_DUMP wire op).

        Returns ``{"label", "interval", "running", "sample_count",
        "samples"}`` with ``samples`` in collapsed-stack form
        (``"thread;outer;inner" -> count``).  A sharded server merges
        every worker process's samples, so ``tools/flame.py`` renders
        one cluster-wide flamegraph.  ``clear`` resets the remote
        counters afterwards (not idempotent — never retried).
        """
        results = self._call(ops.OP_PROF_DUMP, {"clear": clear})
        return json.loads(bytes(results["profile"]).decode("utf-8"))

    def take_reclaims(self) -> List[Tuple[str, int]]:
        """Drain queued reclaim notifications."""
        drained = []
        while True:
            try:
                drained.append(self._reclaims.get_nowait())
            except queue.Empty:
                return drained

    def _on_reclaim(self, container: str, timestamp: int) -> None:
        self._reclaims.put((container, timestamp))
        if self._user_reclaim_cb is not None:
            self._user_reclaim_cb(container, timestamp)

    # -- plumbing ---------------------------------------------------------------------

    def _dial(self) -> "RpcChannel":
        from repro.client.rpc import RpcChannel

        connection: StreamTransport = self._connect() \
            if self._connect is not None else connect_tcp(self._address)
        if self._transport_wrapper is not None:
            connection = self._transport_wrapper(connection)
        return RpcChannel(
            connection, reclaim_listener=self._on_reclaim,
            batching=self._batching,
            batch_max_items=self._batch_max_items,
            batch_max_bytes=self._batch_max_bytes,
            batch_linger=self._batch_linger,
        )

    def _cast(self, opcode: int, args: dict) -> None:
        """Fire-and-forget RPC (see :meth:`RpcChannel.cast`).

        A cast that dies with the connection is replayed once on the
        recovered session — put/consume casts are the only casts the
        client issues, and both tolerate replay (channel puts dedup by
        timestamp on the cluster; consume is idempotent).  The same
        tolerance covers the rare double replay where a cast sits in the
        coalescer when the transport dies *and* the caller re-casts
        after recovery: the duplicate is absorbed cluster-side.
        """
        rpc = self._rpc
        try:
            rpc.cast(opcode, args)
        except TransportClosedError as exc:
            if self._closed:
                raise
            self._note_degraded(exc)
            self._recover(rpc)
            self._rpc.cast(opcode, args)

    def _call(self, opcode: int, args: dict,
              io_timeout: Optional[float] = None,
              retryable: Optional[bool] = None,
              absorb: Tuple[type, ...] = ()) -> dict:
        """One RPC under the retry policy.

        *retryable* defaults to the opcode's entry in
        :data:`~repro.runtime.ops.IDEMPOTENT_OPS`; container I/O passes
        it explicitly (channel ops retry, queue ops do not).  *absorb*
        lists remote errors that, **on a retry only**, prove the
        original attempt landed (channel put replays raising
        ``DuplicateTimestampError``) and are swallowed as success.

        A dead connection triggers session recovery (reconnect + RESUME)
        whether or not this operation can retry — other threads' state
        lives in the same session.
        """
        if retryable is None:
            retryable = opcode in ops.IDEMPOTENT_OPS
        deadline = self._deadline(opcode, io_timeout)
        delays = self.retry.delays()
        attempt = 0
        while True:
            rpc = self._rpc
            try:
                return rpc.call(opcode, args, timeout=deadline)
            except TransportClosedError as exc:
                if self._closed:
                    raise
                self._note_degraded(exc)
                self._recover(rpc)  # raises if the session is gone
                if not retryable:
                    raise
                last: StampedeError = exc
            except RpcTimeoutError as exc:
                # The connection may be fine (response lost or late);
                # retry on the same channel, never reconnect here.
                if not retryable:
                    raise
                last = exc
            except StampedeError as exc:
                if attempt > 0 and absorb and isinstance(exc, absorb):
                    _log.debug(
                        "absorbed %s on retry of %s (original attempt "
                        "landed)", type(exc).__name__,
                        ops.OP_SCHEMAS[opcode].name,
                    )
                    return {}
                raise
            attempt += 1
            pause = next(delays, None)
            if pause is None:
                raise RetryExhaustedError(
                    f"{ops.OP_SCHEMAS[opcode].name!r} failed after "
                    f"{attempt} attempts"
                ) from last
            time.sleep(pause)

    def _deadline(self, opcode: int,
                  io_timeout: Optional[float]) -> Optional[float]:
        """Per-attempt deadline: the base RPC timeout plus any
        application-level blocking time the operation may legally spend.
        Blocking ops without an explicit timeout use the retry policy's
        ``op_timeout`` (None = block indefinitely, the paper's
        semantics)."""
        deadline = self.rpc_timeout
        if io_timeout is not None:
            deadline += io_timeout
        elif opcode in (ops.OP_GET, ops.OP_PUT, ops.OP_ATTACH):
            return self.retry.op_timeout
        return deadline

    # -- fault recovery -----------------------------------------------------------------

    def _recover(self, dead_rpc: "RpcChannel") -> None:
        """Re-dial and RESUME the session (single-flight).

        Threads that hit the dead connection concurrently all land here;
        the first one reconnects under the lock, the rest observe the
        fresh channel and return immediately.

        :raises SessionResumeError: the cluster no longer holds the
            session (grace expired / no grace configured).
        :raises RetryExhaustedError: the cluster stayed unreachable for
            the whole backoff ladder.
        """
        with self._session_lock:
            if self._closed:
                raise TransportClosedError("client is closed")
            if self._rpc is not dead_rpc and not self._rpc.closed:
                return  # another thread already recovered the session
            if not self._reconnect_enabled:
                raise TransportClosedError(
                    "connection to the cluster lost (reconnect disabled)"
                )
            delays = self.retry.delays()
            while True:
                rpc = None
                try:
                    rpc = self._dial()
                    results = rpc.call(ops.OP_RESUME, {
                        "session_id": self.session_id,
                        "token": self._resume_token,
                    }, timeout=self.rpc_timeout)
                    break
                except SessionResumeError:
                    if rpc is not None:
                        rpc.close()
                    self._state = "closed"
                    raise
                except (TransportError, OSError) as exc:
                    if rpc is not None:
                        rpc.close()
                    pause = next(delays, None)
                    if pause is None:
                        raise RetryExhaustedError(
                            f"could not reconnect to {self._address} "
                            f"after {self.retry.max_attempts} attempts"
                        ) from exc
                    _log.info(
                        "reconnect to %s failed (%r); retrying in %.2fs",
                        self._address, exc, pause,
                    )
                    time.sleep(pause)
            old = self._rpc
            self._rpc = rpc
            # Casts the old channel buffered (coalescer) or failed to
            # send die with it otherwise: replay them byte-identically,
            # in order, before anything new goes out.  Replays are safe
            # — every cast the client issues tolerates duplication
            # (channel puts dedup by timestamp; consumes are
            # idempotent).
            for cast_opcode, cast_frame in old.drain_unsent_casts():
                try:
                    rpc.cast_frame(cast_opcode, cast_frame)
                except StampedeError:
                    _log.warning("lost a buffered cast during recovery")
                    break
            old.close()
            self.space = results["space"]
        self._note_recovered(results["connections"])

    def _note_degraded(self, exc: BaseException) -> None:
        with self._state_lock:
            if self._state != "connected":
                return
            self._state = "degraded"
        _log.warning("connection to %s degraded: %r", self._address, exc)
        if self._on_degraded is not None:
            try:
                self._on_degraded(exc)
            except Exception:  # noqa: BLE001 - user callback isolation
                _log.exception("on_degraded callback raised")

    def _note_recovered(self, connections: int) -> None:
        with self._state_lock:
            self._state = "connected"
        _log.info("session %s resumed with %d connections",
                  self.session_id, connections)
        if self._on_recovered is not None:
            try:
                self._on_recovered(connections)
            except Exception:  # noqa: BLE001 - user callback isolation
                _log.exception("on_recovered callback raised")

    def _heartbeat_tick(self) -> Optional[float]:
        """One shared-scheduler tick: a quick PING, never a long block.

        Runs inline on the process-wide timer thread, so it must stay
        fast: the ping gets a bounded timeout and is **not** retried
        here (a lost response simply waits for the next tick), and a
        dead connection hands recovery to a transient thread instead of
        walking the backoff ladder on the shared timer.  Returning
        ``None`` unregisters this client (closed, or session gone).
        """
        if self._closed or self._state == "closed":
            return None
        if self._state == "degraded":
            # Keep driving recovery while the application is idle, so
            # the session resumes as soon as the cluster returns.
            self._spawn_recovery()
            return self._heartbeat_interval
        rpc = self._rpc
        try:
            rpc.call(ops.OP_PING, {"payload": b""},
                     timeout=min(self.rpc_timeout, 5.0))
        except TransportClosedError as exc:
            if self._closed:
                return None
            if not self._reconnect_enabled:
                return None
            self._note_degraded(exc)
            self._spawn_recovery()
        except StampedeError:
            # Timeout or a slow cluster: the connection may be fine, so
            # neither degrade nor block — the next tick tries again.
            pass
        return self._heartbeat_interval

    def _spawn_recovery(self) -> None:
        """Start (at most one) background reconnect+RESUME driver.

        Single-flight at the thread level: if a recovery thread is
        already running — or another caller's `_call` is recovering
        inline — this returns immediately.  The thread is transient: it
        exists only while the client is degraded, exactly like the lane
        pool's offload workers.
        """
        with self._recovery_lock:
            thread = self._recovery_thread
            if thread is not None and thread.is_alive():
                return
            dead_rpc = self._rpc
            thread = threading.Thread(
                target=self._recovery_main, args=(dead_rpc,),
                name=f"{self.client_name}-recover", daemon=True,
            )
            self._recovery_thread = thread
            thread.start()

    def _recovery_main(self, dead_rpc: "RpcChannel") -> None:
        try:
            self._recover(dead_rpc)
        except StampedeError:
            # Unreachable cluster (retry next tick) or session gone
            # (state is "closed"; the next tick unregisters us).
            pass
        except Exception:  # noqa: BLE001 - never kill the process
            _log.exception("background session recovery failed")

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Leave the computation cleanly (BYE) and drop the connection.

        The heartbeat registration is cancelled before the socket goes
        away, so a shutdown never races a ping into a closing
        connection; if this was the last heartbeating client in the
        process, the shared timer thread is joined too.
        """
        if self._closed:
            return
        self._closed = True
        if self._heartbeat_handle is not None:
            self._heartbeat_handle.cancel(join_timeout=1.0)
        try:
            self._rpc.call(ops.OP_BYE, {}, timeout=2.0)
        except Exception:  # noqa: BLE001 - best-effort goodbye
            pass
        self._rpc.close()
        self._state = "closed"

    def __enter__(self) -> "StampedeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<StampedeClient {self.client_name!r} session="
            f"{getattr(self, 'session_id', '?')} codec={self.codec.name}>"
        )

"""Surrogates: the cluster-side representatives of end devices.

"Upon joining, a specific surrogate thread is created on the cluster on
behalf of the new end device.  All subsequent D-Stampede calls from this
end device are fielded and carried out by this specific surrogate thread"
(§3.2.2).

A :class:`Surrogate` owns one framed stream connection — a device's
TCP socket, or the SHM ring pair of a co-host peer link
(:mod:`repro.transport.shm`); the framing layer hides which — and one
:class:`~repro.runtime.service.SessionService`.  Requests on a container
connection are executed on that connection's
:class:`~repro.runtime.lanes.LaneClient` — a FIFO sub-queue of the
server's bounded :class:`~repro.runtime.lanes.LanePool` — so a blocking
``get`` from the device's display thread never stalls the puts of its
producer thread (both share the device's single connection), while the
server's thread count stays O(lanes) instead of O(connections).  In
reactor mode a put, get or consume on an idle connection to a local
container skips the lane handoff and runs to completion on the reactor
turn that decoded it (:meth:`Surrogate._run_or_queue`).

Two receive modes exist:

* **thread mode** (``reactor=None``) — the seed design: a dedicated
  receive thread polls the connection with a 0.5s timeout.  Kept for
  direct embedding and unit tests.
* **reactor mode** — the production path: the server's shared
  :class:`~repro.runtime.reactor.Reactor` watches every device socket
  and calls :meth:`_on_readable`, which does a non-blocking buffered
  frame decode.  No per-device thread, no idle polls; dispatch and
  ordering semantics are identical because routing is shared.

Beyond the paper (which lists failure handling as an open limitation), a
surrogate carries a **lease**: the server can reap surrogates whose
device has been silent too long, instead of leaving them "in an
indeterminate state".
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import (
    ChannelFullError,
    ItemNotFoundError,
    StampedeError,
    TransportClosedError,
)
from repro.obs.metrics import COUNT_BOUNDS, GLOBAL_METRICS as _metrics
from repro.obs import spans as _spanmod
from repro.runtime import lanes, ops
from repro.runtime.reactor import Reactor
from repro.runtime.service import SessionService
from repro.transport.base import StreamTransport
from repro.transport.message import FrameReader
from repro.util import trace as tracepoints
from repro.util.logging import get_logger
from repro.util.trace import trace

_log = get_logger("runtime.surrogate")

# Server-side RPC instruments.  Per-op latency histograms are created
# lazily on first use (one per opcode actually seen); the batch pair
# measures how full the client coalescer's envelopes arrive — the fill
# factor that decides whether batching is earning its latency cost.
_OP_HISTS: Dict[int, object] = {}
_BATCHES = _metrics.counter("rpc.server.batches")
_BATCH_ITEMS = _metrics.histogram(
    "rpc.server.batch_items", bounds=COUNT_BOUNDS, unit="items")


def _op_hist(opcode: int):
    hist = _OP_HISTS.get(opcode)
    if hist is None:
        schema = ops.OP_SCHEMAS.get(opcode)
        name = schema.name if schema is not None else f"op{opcode}"
        # Racing creators both get the registry's single instance.
        hist = _metrics.histogram(f"rpc.server.{name}_us")
        _OP_HISTS[opcode] = hist
    return hist


#: Container ops that can wait (a consumer's get, a bounded put).  On a
#: shared lane they are probed non-blockingly first; a genuine wait is
#: moved off the lane (see :meth:`Surrogate._execute`).
_BLOCKING_OPS = frozenset({ops.OP_PUT, ops.OP_GET})
#: What a non-blocking probe raises when the op would have waited.
_WOULD_BLOCK = (ChannelFullError, ItemNotFoundError)
#: Container ops that may run on the reactor turn that decoded them:
#: after the non-blocking probe none of them waits (a genuine wait is
#: offloaded exactly as on a lane).
_INLINE_OPS = frozenset({ops.OP_PUT, ops.OP_GET, ops.OP_CONSUME,
                         ops.OP_CONSUME_UNTIL})


class _Offloaded(Exception):
    """Internal: the op moved to a dedicated worker; no response yet."""


#: Return marker of :meth:`Surrogate._handle` for the offloaded case.
_OFFLOADED = object()


class Surrogate:
    """The cluster-side agent of one end device.

    Parameters
    ----------
    connection, service, on_close:
        As before: the device's transport, its session state, and the
        server's bookkeeping callback.
    park:
        Optional ``park(service) -> bool``.  When the transport dies
        *without* a clean BYE, the surrogate offers its session here
        instead of closing it; True means the server parked it for a
        grace period so a reconnecting device can RESUME it.
    resume_lookup:
        Optional ``resume_lookup(surrogate, session_id, token) ->
        SessionService``.  Serves the RESUME wire op: returns the parked
        session to adopt or raises
        :class:`~repro.errors.SessionResumeError`.
    reactor:
        Optional shared event loop.  When given, this surrogate has no
        receive thread: the reactor drives :meth:`_on_readable`.
    lane_pool:
        Optional shared :class:`~repro.runtime.lanes.LanePool` for
        container-op execution.  The server passes its pool so every
        surrogate shares the same bounded lane set; a standalone
        (embedded / unit-test) surrogate lazily creates a private pool.
    """

    #: Frames drained per readability callback before yielding the loop
    #: back to other connections (fairness under a flooding device).
    _RX_BURST = 64

    def __init__(self, connection: StreamTransport, service: SessionService,
                 on_close: Optional[Callable[["Surrogate"], None]] = None,
                 park: Optional[Callable[[SessionService], bool]] = None,
                 resume_lookup: Optional[
                     Callable[["Surrogate", str, str], SessionService]
                 ] = None,
                 reactor: Optional[Reactor] = None,
                 lane_pool: Optional[lanes.LanePool] = None) -> None:
        self.connection = connection
        self.service = service
        self._on_close = on_close
        self._park = park
        self._resume_lookup = resume_lookup
        self._reactor = reactor
        self._closed = threading.Event()
        self._lane_pool = lane_pool
        self._own_pool: Optional[lanes.LanePool] = None
        #: Lane clients by wire connection id; key None is the client
        #: that finishes replies the reactor could not send whole.
        self._lanes: Dict[Optional[int], lanes.LaneClient] = {}
        self._lanes_lock = threading.Lock()
        self.last_activity = time.monotonic()
        self.requests_served = 0
        self._name = f"surrogate-{service.session_id}"
        self._reader: Optional[FrameReader] = None
        #: The transport's never-waiting send, in reactor mode only.
        self._send_nowait: Optional[Callable[..., bool]] = None
        self._rx_paused = False
        self._teardown_started = False
        self._thread: Optional[threading.Thread] = None
        if reactor is None:
            self._thread = threading.Thread(
                target=self._serve, name=self._name, daemon=True,
            )

    def start(self) -> "Surrogate":
        """Begin serving the device; returns self."""
        trace(tracepoints.JOIN, self.service.session_id,
              client=self.service.client_name, space=self.service.space)
        if self._reactor is not None:
            self.connection.setblocking(False)
            self._reader = FrameReader()
            self._send_nowait = getattr(
                self.connection, "send_frame_parts_nowait", None)
            # A locally-closed socket vanishes from the selector without
            # an event; the hook turns any local close (lease reap,
            # test-driven sever, server shutdown) into a teardown.
            self.connection.on_close(self._on_transport_closed)
            self._reactor.add_reader(
                self.connection.raw_socket, self._on_readable
            )
        else:
            assert self._thread is not None
            self._thread.start()
        return self

    @property
    def alive(self) -> bool:
        """False once the surrogate has been closed."""
        return not self._closed.is_set()

    @property
    def idle_seconds(self) -> float:
        """Seconds since the device's last request (lease age)."""
        return time.monotonic() - self.last_activity

    # -- serving ------------------------------------------------------------------

    def _serve(self) -> None:
        """Thread-mode receive loop (``reactor=None`` only)."""
        try:
            while not self._closed.is_set():
                try:
                    frame = self.connection.recv_frame(timeout=0.5)
                except TransportClosedError:
                    break
                except StampedeError:
                    continue  # recv timeout: poll the closed flag
                self.last_activity = time.monotonic()
                self._dispatch(frame)
        finally:
            # The transport died (or close() was called): a session that
            # never said BYE may be parked for resume.
            self.close(park=True)

    def _on_readable(self) -> None:
        """Reactor-mode receive: drain buffered frames without blocking.

        Runs on the reactor thread.  Anything that could block — a
        container op that must wait, RESUME, BYE, teardown — is handed
        to worker threads by :meth:`_route`; only ops that cannot block
        run here.
        """
        assert self._reader is not None
        try:
            for _ in range(self._RX_BURST):
                if self._closed.is_set() or self._rx_paused:
                    return
                frame = self._reader.read(self.connection.raw_socket)
                if frame is None:
                    return  # kernel buffer dry: wait for the next event
                self.last_activity = time.monotonic()
                self._dispatch(frame)
        except Exception as exc:  # noqa: BLE001 - any rx failure ends it
            if not isinstance(exc, TransportClosedError):
                _log.warning("surrogate %s: receive failed: %r",
                             self.service.session_id, exc)
            self._teardown_async()

    def _dispatch(self, frame: bytes) -> None:
        """Decode one request frame and route it (see :meth:`_route`).

        Payload fields are decoded as zero-copy ``memoryview`` slices of
        *frame*: the frame buffer is freshly allocated per frame and
        never reused, so the views stay valid for as long as anything
        (e.g. a channel item) references them.
        """
        try:
            request_id, opcode, args = ops.decode_request(
                frame, payload_views=True
            )
        except Exception as exc:  # noqa: BLE001 - hostile frame
            try:
                request_id = ops.peek_request_id(frame)
            except Exception:  # noqa: BLE001 - not even an envelope
                request_id = ops.CAST_REQUEST_ID
            if request_id != ops.CAST_REQUEST_ID:
                self._send(ops.encode_error_response(
                    request_id, type(exc).__name__, str(exc),
                    reclaims=self.service.drain_reclaims(),
                ))
            return
        if opcode in ops.BATCH_OPS:
            self._dispatch_batch(request_id, opcode, args["frames"])
            return
        self._route(request_id, opcode, args)

    def _dispatch_batch(self, request_id: int, batch_opcode: int,
                        frames) -> None:
        """Unpack a batch envelope and route each inner cast normally.

        Each subframe is a complete, individually-encoded cast request;
        routing it through :meth:`_route` sends it to the same lane
        client a lone frame would reach (or runs it inline under the
        same rule), so per-connection ordering and dedup semantics are
        exactly those of unbatched traffic.
        """
        if request_id != ops.CAST_REQUEST_ID:
            # A synchronous batch has no meaningful single reply; the
            # client never sends one.
            self._send(ops.encode_error_response(
                request_id, "RpcError", "batch envelopes must be casts",
                reclaims=self.service.drain_reclaims(),
            ))
            return
        if _metrics.enabled:
            _BATCHES.value += 1
            _BATCH_ITEMS.observe(len(frames))
        allowed = ops.BATCH_INNER_OPS[batch_opcode]
        # Consecutive items bound for the same connection are handed to
        # its lane client as ONE chunk: order within the run is kept
        # by the client's FIFO, and the per-item queue/wakeup handoff
        # (two context switches per cast on a busy box) is paid once per
        # run instead of once per item.  Items for different connections
        # already had no mutual ordering guarantee unbatched (parallel
        # lanes), so run boundaries lose nothing.
        run: list = []
        run_connection: Optional[int] = None
        for subframe in frames:
            try:
                sub_id, sub_op, sub_args = ops.decode_request(
                    subframe, payload_views=True
                )
                if sub_id != ops.CAST_REQUEST_ID:
                    raise ops.RpcError("batched frames must be casts")
                if sub_op not in allowed:
                    raise ops.RpcError(
                        f"opcode {sub_op} not allowed in "
                        f"{ops.OP_SCHEMAS[batch_opcode].name}"
                    )
            except Exception as exc:  # noqa: BLE001 - skip bad item
                _log.warning("batched cast from %s rejected: %r",
                             self.service.session_id, exc)
                continue
            connection_id = sub_args.get("connection_id")
            if connection_id is not None \
                    and self.service.has_connection(connection_id):
                if run and connection_id != run_connection:
                    self._run_or_queue(run_connection, run)
                    run = []
                run_connection = connection_id
                run.append((sub_id, sub_op, sub_args))
            else:
                if run:
                    self._run_or_queue(run_connection, run)
                    run = []
                self._route(sub_id, sub_op, sub_args)
        if run:
            self._run_or_queue(run_connection, run)

    def _route(self, request_id: int, opcode: int, args) -> None:
        """Pick the execution context for one decoded request.

        * Operations on a container connection (put/get/consume/...)
          run on that connection's **lane client**: a lazily-bound FIFO
          sub-queue of the bounded lane pool that preserves issue order
          even when an operation blocks — without it, a blocked put
          racing later puts (possible with fire-and-forget streaming)
          could fill a bounded channel out of order and deadlock an
          in-order consumer.  Different connections execute in parallel
          across lanes, so a display thread's blocking get never stalls
          its device's producer.  Non-blocking ops on an idle local
          connection skip the queue and run here (see
          :meth:`_run_or_queue`).
        * ``attach`` with ``wait`` may block on the name server: its own
          worker thread.
        * In reactor mode, RESUME and BYE (which join or sleep) run on a
          lifecycle worker with this connection's reads paused, keeping
          the thread-mode ordering guarantee that nothing else of this
          device dispatches until they finish.
        * Everything else (HELLO, PING, NS ops, INSPECT...) is fast and
          runs inline on the receive context.
        """
        if opcode in ops.OBSERVER_OPS:
            # Diagnostics must answer even when every lane is wedged
            # behind a blocking container op — that is precisely the
            # situation being diagnosed.  A fresh daemon thread per
            # observer request keeps STATS/TRACE_DUMP off both the
            # reactor loop and the (possibly stalled) lanes; the ops
            # only read snapshots, so ordering does not matter.
            threading.Thread(
                target=self._handle, args=(request_id, opcode, args),
                name=f"{self._name}-observer", daemon=True,
            ).start()
            return
        connection_id = args.get("connection_id")
        if connection_id is not None:
            if not self.service.has_connection(connection_id):
                # Unknown/detached id: answer inline with the usual
                # RpcError instead of minting lane-client state —
                # otherwise a hostile client could grow the lane table
                # with one entry per random id.
                self._handle(request_id, opcode, args)
                return
            self._run_or_queue(connection_id, (request_id, opcode, args),
                               opcode in _INLINE_OPS)
            return
        if opcode == ops.OP_ATTACH and args.get("wait"):
            worker = threading.Thread(
                target=self._handle, args=(request_id, opcode, args),
                name=f"{self._name}-attach", daemon=True,
            )
            worker.start()
            return
        if self._reactor is not None and \
                opcode in (ops.OP_RESUME, ops.OP_BYE):
            self._offload_paused(request_id, opcode, args)
            return
        self._handle(request_id, opcode, args)

    def _offload_paused(self, request_id: int, opcode: int,
                        args) -> None:
        """Run a session-lifecycle op off the reactor loop with this
        connection's reads paused until it completes."""
        reactor = self._reactor
        assert reactor is not None
        sock = self.connection.raw_socket
        self._rx_paused = True
        reactor.remove_reader(sock)

        def _work() -> None:
            try:
                self._handle(request_id, opcode, args)
            finally:
                if not self._closed.is_set() \
                        and not self._teardown_started:
                    self._rx_paused = False
                    reactor.add_reader(sock, self._on_readable)

        threading.Thread(target=_work, name=f"{self._name}-lifecycle",
                         daemon=True).start()

    def _run_or_queue(self, connection_id: int, element,
                      inline: bool = True) -> None:
        """Hand *element* — one request tuple, or a batch run (a list)
        for one connection — to that connection's lane client.

        In reactor mode an *inline*-eligible element (see
        :data:`_INLINE_OPS`; batch runs always are) runs right here, on
        the reactor turn that decoded it, when three things hold: the
        connection's container lives in this process (a forwarded one
        makes a blocking peer RPC), its lane client is idle (so issue
        order cannot change), and the socket has taken every earlier
        reply whole (so nothing of this device is stuck behind it).
        Otherwise the element queues for a lane.
        """
        client = self._lane_client(connection_id)
        if (inline and self._send_nowait is not None
                and not self.connection.backlogged
                and self.service.is_local_connection(connection_id)
                and client.run_inline(element)):
            return
        if isinstance(element, list):
            client.submit_many(element)
        else:
            client.submit(element)

    def _pool(self) -> lanes.LanePool:
        """The server's lane pool, or (standalone embedding: reactor-less
        unit tests, no server) a lazily-created private one with the
        same default sizing.  Lane threads start lazily, so a private
        pool costs only the lanes actually used."""
        if self._lane_pool is not None:
            return self._lane_pool
        if self._own_pool is None:
            self._own_pool = lanes.LanePool(name=f"{self._name}-lane")
        return self._own_pool

    def _lane_client(self, connection_id: int) -> lanes.LaneClient:
        with self._lanes_lock:
            client = self._lanes.get(connection_id)
            if client is None:
                client = self._pool().client(
                    self._run_request,
                    name=f"{self._name}-conn{connection_id}",
                )
                self._lanes[connection_id] = client
            return client

    def _run_request(self, request) -> object:
        """Lane-client runner: execute one queued request tuple.

        Translates the surrogate's offload marker into the pool's STOP
        protocol: the in-flight op moved to a dedicated thread with this
        client suspended, so the lane must not run the connection's
        later tasks yet.
        """
        request_id, opcode, args = request
        if self._handle(request_id, opcode, args) is _OFFLOADED:
            return lanes.STOP
        return None

    def _evict_lane(self, connection_id: Optional[int]) -> None:
        """Drop a departed connection's lane bookkeeping immediately
        (clean detach), instead of retaining it until close()."""
        if connection_id is None:
            return
        with self._lanes_lock:
            client = self._lanes.pop(connection_id, None)
        if client is not None:
            client.evict()

    def _handle(self, request_id: int, opcode: int, args) -> object:
        """Execute one request: trace-context + timing around the work.

        A trace id the client attached to the frame becomes this
        thread's trace context for the duration, so every event the
        operation records — the surrogate's own routing event, the
        container's PUT/GET, eventually the GC's RECLAIM of the item it
        stamped — carries the client's id and joins its timeline.

        Returns ``_OFFLOADED`` when the op moved to a dedicated blocking
        worker (the lane runner translates that into STOP), else None.
        """
        trace_id = args.pop(ops.TRACE_ID_KEY, None)
        origin = args.pop(ops.ORIGIN_KEY, 0.0)
        if origin and _spanmod.GLOBAL_SPANS.enabled:
            return self._handle_stamped(
                request_id, opcode, args, trace_id, origin)
        t0 = time.monotonic() if _metrics.enabled else 0.0
        if trace_id is None:
            outcome = self._handle_inner(request_id, opcode, args)
        else:
            prior = tracepoints.set_trace_id(trace_id)
            try:
                if tracepoints.GLOBAL_TRACER.enabled:
                    schema = ops.OP_SCHEMAS.get(opcode)
                    trace(tracepoints.RPC, self.service.session_id,
                          op=schema.name if schema else opcode,
                          side="server")
                outcome = self._handle_inner(request_id, opcode, args)
            finally:
                tracepoints.set_trace_id(prior)
        if t0:
            _op_hist(opcode).observe((time.monotonic() - t0) * 1e6)
        return outcome

    def _handle_stamped(self, request_id: int, opcode: int, args,
                        trace_id, origin: float) -> object:
        """Handle a request carrying a provenance origin stamp.

        Records the LANE_DEQUEUE hop (the origin→here offset is exactly
        the time the frame spent in flight plus queued on its lane) and
        binds the (origin, subject) span context so downstream hops —
        the container's insert, a cross-shard forward, the eventual GC
        reclaim — measure against the same birth instant.  Delegates
        back to :meth:`_handle` with the origin consumed, so the normal
        trace/timing path runs unchanged inside the span context.
        """
        subject = self.service.connection_container(
            args.get("connection_id"))
        if subject is None:
            schema = ops.OP_SCHEMAS.get(opcode)
            subject = schema.name if schema else f"op{opcode}"
        _spanmod.GLOBAL_SPANS.record(
            _spanmod.LANE_DEQUEUE, subject, origin, trace_id=trace_id)
        if trace_id is not None:
            args[ops.TRACE_ID_KEY] = trace_id
        prior = _spanmod.set_context((origin, subject))
        try:
            return self._handle(request_id, opcode, args)
        finally:
            _spanmod.set_context(prior)

    def _execute(self, request_id: int, opcode: int, args):
        """``service.execute`` with lane-liveness protection.

        On a lane thread, a PUT/GET that may wait is probed with
        ``block=False`` first — the hot path (item present, channel has
        room) stays inline with zero extra threads.  Only when the probe
        says the op would genuinely block does it move to a transient
        worker, with this connection's lane client suspended so the
        device's later operations keep their issue order; the shared
        lane meanwhile serves its other clients.  Without this, one
        consumer blocked in ``get`` would wedge every connection on its
        lane — fatal at ``lanes=1``, where the producer whose put would
        unblock it is queued *behind* it.
        """
        if (opcode in _BLOCKING_OPS and args.get("block")
                and lanes.current_client() is not None):
            probe = dict(args)
            probe["block"] = False
            try:
                return self.service.execute(opcode, probe)
            except _WOULD_BLOCK:
                self._offload_blocking(request_id, opcode, args)
                raise _Offloaded()
        return self.service.execute(opcode, args)

    def _offload_blocking(self, request_id: int, opcode: int,
                          args) -> None:
        """Move a genuinely-blocking container op to its own transient
        thread.  Thread cost is O(concurrently-blocked ops) — paid only
        while an op actually waits — not O(connections)."""
        client = lanes.current_client()
        assert client is not None
        client.suspend()
        # _handle already consumed the frame's trace/origin envelope, so
        # the re-entry would run contextless.  Re-attach whatever this
        # lane thread currently carries: the worker's container insert
        # then still lands on the item's original timeline.
        trace_id = tracepoints.current_trace_id()
        if trace_id is not None:
            args[ops.TRACE_ID_KEY] = trace_id
        entry = _spanmod.current_entry()
        if entry is not None:
            args[ops.ORIGIN_KEY] = entry[0]

        def _work() -> None:
            try:
                # Re-enters _handle off the lane: current_client() is
                # None there, so the op executes with real blocking
                # semantics and sends its own response.
                self._handle(request_id, opcode, args)
            finally:
                client.resume()

        threading.Thread(target=_work, name=f"{self._name}-blocked-op",
                         daemon=True).start()

    def _handle_inner(self, request_id: int, opcode: int, args) -> object:
        is_cast = request_id == ops.CAST_REQUEST_ID
        try:
            if opcode == ops.OP_RESUME and \
                    self._resume_lookup is not None:
                results = self._resume(args)
                if not is_cast:
                    self._send(ops.encode_ok_response(
                        request_id, opcode, results,
                        reclaims=self.service.drain_reclaims(),
                    ))
                return None
            if opcode == ops.OP_BYE:
                # A clean goodbye races queued casts: the device fires
                # consume casts and BYE back to back, TCP delivers them in
                # order, but the casts execute on the lane clients while
                # BYE runs here.  Executing BYE first would detach the
                # connections out from under the queued consumes and lose
                # them (leaving items live forever), so drain the lanes
                # before saying goodbye.
                self._drain_lanes()
            results = self._execute(request_id, opcode, args)
            self.requests_served += 1
            if opcode == ops.OP_DETACH:
                # Clean departure: the connection's lane bookkeeping
                # goes with it (not retained until server close).
                self._evict_lane(args.get("connection_id"))
            if opcode == ops.OP_BYE:
                if not is_cast:
                    self._send(ops.encode_ok_response(
                        request_id, opcode, results,
                        reclaims=self.service.drain_reclaims(),
                    ))
                self.close()
                return None
            if is_cast:
                return None  # fire-and-forget: no response
            parts = ops.encode_ok_response_parts(
                request_id, opcode, results,
                reclaims=self.service.drain_reclaims(),
            )
        except _Offloaded:
            # A dedicated worker owns the op now; it will respond.
            return _OFFLOADED
        except Exception as exc:  # noqa: BLE001 - becomes an error frame
            if is_cast:
                _log.warning(
                    "cast %s from %s failed: %r",
                    ops.OP_SCHEMAS.get(opcode,
                                       ops.OP_SCHEMAS[ops.OP_PING]).name,
                    self.service.session_id, exc,
                )
                return None
            parts = [ops.encode_error_response(
                request_id, type(exc).__name__, str(exc),
                reclaims=self.service.drain_reclaims(),
            )]
        self._send_parts(parts)
        return None

    def _resume(self, args) -> dict:
        """Adopt a parked session: swap this surrogate's (empty, fresh)
        service for the one the reconnecting device left behind.

        Runs before any other request of the new connection — inline on
        the receive loop in thread mode, on the lifecycle worker with
        reads paused in reactor mode — so the swap cannot race the
        session's own operations.  The discarded fresh service held no
        resources — it existed only to field this handshake.
        """
        assert self._resume_lookup is not None
        resumed = self._resume_lookup(
            self, args["session_id"], args["token"]
        )
        old_id = self.service.session_id
        self.service = resumed
        trace(tracepoints.JOIN, resumed.session_id,
              client=resumed.client_name, space=resumed.space,
              resumed=True)
        _log.info(
            "session %s resumed (%d connections) on surrogate %s",
            resumed.session_id, resumed.connection_count(), old_id,
        )
        return {"space": resumed.space,
                "connections": resumed.connection_count()}

    def _send(self, frame: bytes) -> None:
        self._send_parts((frame,))

    def _send_parts(self, parts) -> None:
        """Scatter/gather send: response header and payload buffers go
        to the kernel as one ``sendmsg``, so a cached item payload is
        never copied into an intermediate response frame.

        The reactor never waits on one device's socket: there the send
        takes only what the socket accepts at once, and a lane finishes
        the rest (:meth:`_flush_off_loop`).
        """
        try:
            if self._send_nowait is not None \
                    and self._reactor.on_loop_thread():
                if not self._send_nowait(parts):
                    self._flush_off_loop()
                return
            self.connection.send_frame_parts(parts)
        except TransportClosedError:
            self._on_send_failed()

    def _flush_off_loop(self) -> None:
        """Queue a flush of the transport's send backlog on this
        surrogate's flush client.  Until the backlog is out, this
        device's container ops take the lane path."""
        with self._lanes_lock:
            client = self._lanes.get(None)
            if client is None:
                client = self._lanes[None] = self._pool().client(
                    self._run_flush, name=f"{self._name}-flush")
        client.submit(None)

    def _run_flush(self, _task) -> None:
        """Flush-client runner: write the backlog, waiting as needed."""
        try:
            self.connection.flush()
        except TransportClosedError:
            self._on_send_failed()

    def _on_send_failed(self) -> None:
        if self._reactor is not None \
                and self._reactor.on_loop_thread():
            self._teardown_async()
        else:
            self.close(park=True)

    # -- teardown --------------------------------------------------------------------

    def _on_transport_closed(self) -> None:
        """Close-hook from the transport: someone closed our socket
        locally (not the peer).  Skip when the surrogate itself is
        already closing — its own close() drives the same teardown."""
        if self._closed.is_set():
            return
        self._teardown_async()

    def _teardown_async(self) -> None:
        """Take the connection off the loop; close on a worker thread.

        ``close`` drains lane queues (a bounded wait), which must never
        happen on the reactor thread itself.
        """
        if self._teardown_started:
            return
        self._teardown_started = True
        self._rx_paused = True
        if self._reactor is not None:
            self._reactor.remove_reader(self.connection.raw_socket)
        threading.Thread(
            target=self.close, kwargs={"park": True},
            name=f"{self._name}-teardown", daemon=True,
        ).start()

    #: Shared drain budget at teardown.  The old per-executor join gave
    #: each worker its own 2 s — worst case 2 s × connections; now every
    #: client drains against one absolute deadline.
    _DRAIN_TIMEOUT = 2.0

    def _drain_lanes(self) -> None:
        """Run every queued request of this surrogate to completion.

        The waits race ONE shared deadline: while we wait on the first
        client, the others' lanes keep executing in parallel, so a
        surrogate (or a server with 1000 of them) tears down in at most
        ``_DRAIN_TIMEOUT`` seconds total.  Deadlock-safe when close()
        runs on a lane thread — a client affined to the current lane is
        drained inline by :meth:`~repro.runtime.lanes.LaneClient.drain`.
        """
        with self._lanes_lock:
            clients = list(self._lanes.values())
        if not clients:
            return
        deadline = time.monotonic() + self._DRAIN_TIMEOUT
        for client in clients:
            if not client.drain(
                    timeout=max(0.0, deadline - time.monotonic())):
                _log.warning(
                    "surrogate %s: %s still busy at the teardown "
                    "deadline", self.service.session_id, client.name,
                )

    def close(self, park: bool = False) -> None:
        """Annihilate the surrogate: release session state, drop the pipe.

        Idempotent; called on clean BYE, device disconnect, lease expiry,
        and server shutdown.  With ``park=True`` (the disconnect path) a
        session that never said BYE is offered to the server's
        grace-period table instead of being closed, so a reconnecting
        device can RESUME it; everything else about the surrogate still
        dies.  Lease expiry and shutdown pass ``park=False``: those are
        verdicts, not outages.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._reactor is not None:
            # Off the selector before the fd closes (fd-reuse safety);
            # synchronous, and a no-op if teardown already removed it.
            self._rx_paused = True
            self._reactor.remove_reader(self.connection.raw_socket)
        # Same ordering as the BYE path: queued casts must finish before
        # the session's connections detach underneath them.
        self._drain_lanes()
        with self._lanes_lock:
            clients = list(self._lanes.values())
            self._lanes.clear()
        for client in clients:
            client.evict()
        if self._own_pool is not None:
            self._own_pool.close(timeout=self._DRAIN_TIMEOUT)
        parked = False
        if park and self._park is not None and not self.service.closed:
            parked = self._park(self.service)
        if not parked:
            self.service.close()
        self.connection.close()
        if self._on_close is not None:
            self._on_close(self)
        trace(tracepoints.LEAVE, self.service.session_id,
              requests=self.requests_served, parked=parked)
        _log.info(
            "surrogate %s %s after %d requests",
            self.service.session_id,
            "parked" if parked else "closed", self.requests_served,
        )

    def __repr__(self) -> str:
        state = "alive" if self.alive else "closed"
        return (
            f"<Surrogate {self.service.session_id} "
            f"client={self.service.client_name!r} {state}>"
        )


class LeaseReaper:
    """Failure-detection extension: reaps surrogates idle past a lease.

    The paper's stated limitation — "if an end device does not cleanly
    leave an application ... it will leave its surrogate on the cluster in
    an indeterminate state" (§3.3) — is closed by treating device silence
    longer than *lease_timeout* as a failure.  Client libraries keep the
    lease alive with periodic PINGs.

    The reactor server hangs lease sweeps off its event loop instead of
    running this thread; the class remains for thread-mode embeddings.
    """

    def __init__(self, surrogates: Dict[str, Surrogate],
                 lock: threading.Lock, lease_timeout: float,
                 check_interval: Optional[float] = None) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self._surrogates = surrogates
        self._lock = lock
        self._lease = lease_timeout
        self._interval = check_interval or lease_timeout / 4
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="surrogate-reaper", daemon=True
        )

    def start(self) -> None:
        """Begin the periodic sweep."""
        self._thread.start()

    def stop(self) -> None:
        """Stop sweeping and join the reaper thread."""
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(timeout=self._interval):
            with self._lock:
                expired = [
                    s for s in self._surrogates.values()
                    if s.alive and s.idle_seconds > self._lease
                ]
            for surrogate in expired:
                _log.warning(
                    "lease expired for %s (idle %.1fs) — reaping",
                    surrogate.service.session_id, surrogate.idle_seconds,
                )
                surrogate.close()

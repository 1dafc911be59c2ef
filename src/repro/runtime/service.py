"""Executes wire operations against a runtime on behalf of one end device.

One :class:`SessionService` instance exists per connected end device; it
is the state the paper says the surrogate maintains — "state information
pertaining to an end device is maintained by the server library via the
associated surrogate thread" (§3.2.2):

* the device's assigned address space,
* the device's codec personality (XDR or JDR),
* its open connections (wire connection-ids map to real
  :class:`~repro.core.connection.Connection` objects),
* its pending reclaim notifications (§3.2.4), drained into every response.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.core.connection import Connection, ConnectionMode
from repro.core.container import Container
from repro.core.timestamps import NEWEST, OLDEST
from repro.errors import RpcError, StampedeError
from repro.marshal import get_codec
from repro.runtime import ops
from repro.runtime.nameserver import NameRecord
from repro.runtime.runtime import Runtime

_session_ids = itertools.count(1)

_MODES = {
    "in": ConnectionMode.IN,
    "out": ConnectionMode.OUT,
    "inout": ConnectionMode.INOUT,
}


class SessionService:
    """Per-end-device operation executor.

    Parameters
    ----------
    runtime:
        The cluster runtime operations act on.
    space:
        The address space assigned to this device (the ``N_i`` its
        listener lives in, §4).
    client_name:
        Diagnostic label until HELLO overrides it.
    router:
        The shard router when this service runs inside a sharded server
        (see :mod:`repro.runtime.shards`).  ``None`` — the default and
        the ``shards=1`` case — leaves every operation exactly as the
        single-process server executes it.  With a router, operations
        naming a container (or name binding) the local shard does not
        own are forwarded over the owner's peer link; aggregate
        operations (STATS, GC_REPORT, NS_LIST) additionally merge every
        peer's answer when the router has ``fanout`` set (front-door
        sessions do; peer-door sessions do not, so forwarded aggregates
        answer locally and can never recurse).
    """

    def __init__(self, runtime: Runtime, space: str,
                 client_name: str = "", router: Any = None) -> None:
        self.runtime = runtime
        self.space = space
        self.client_name = client_name
        self._router = router
        self.session_id = f"session-{next(_session_ids)}"
        #: Credential a reconnecting device presents in RESUME to reclaim
        #: this session after its transport died (handed out in HELLO).
        self.resume_token = uuid.uuid4().hex
        self.hello_done = False
        self.codec = get_codec("xdr")
        self._connections: Dict[int, Connection] = {}
        self._conn_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending_reclaims: List[ops.Reclaim] = []
        #: containers we installed a reclaim-forwarding handler on:
        #: name -> (container, handler) for removal at close.
        self._handlers: Dict[str, Tuple[Container, Any]] = {}
        self._registered_names: List[str] = []
        self.closed = False

    # -- reclaim piggybacking ----------------------------------------------------

    def drain_reclaims(self) -> List[ops.Reclaim]:
        """Take (and clear) pending reclaim notifications."""
        with self._lock:
            drained = self._pending_reclaims
            self._pending_reclaims = []
            return drained

    def _install_reclaim_forwarder(self, container: Container) -> None:
        with self._lock:
            if container.name in self._handlers:
                return

            def forwarder(timestamp, value, _name=container.name):
                with self._lock:
                    self._pending_reclaims.append((_name, timestamp))

            self._handlers[container.name] = (container, forwarder)
        container.add_reclaim_handler(forwarder)

    def note_reclaim(self, container_name: str, timestamp: int) -> None:
        """Queue a reclaim notification from a *remote* container.

        The shard router calls this when the owner shard of a forwarded
        connection reclaims an item this session saw; it piggybacks on
        the next response exactly like a local reclaim (§3.2.4).
        """
        with self._lock:
            self._pending_reclaims.append((container_name, timestamp))

    # -- dispatch -----------------------------------------------------------------

    def execute(self, opcode: int, args: Dict[str, Any]) -> Dict[str, Any]:
        """Run one operation; returns the result fields.

        Exceptions propagate to the surrogate, which encodes them as error
        responses.
        """
        handler = self._DISPATCH.get(opcode)
        if handler is None:
            raise RpcError(f"unhandled opcode {opcode}")
        return handler(self, args)

    # -- operations ------------------------------------------------------------------

    def _op_hello(self, args: Dict[str, Any]) -> Dict[str, Any]:
        self.client_name = args["client_name"]
        self.codec = get_codec(args["codec"])
        self.hello_done = True
        return {"session_id": self.session_id, "space": self.space,
                "token": self.resume_token}

    def _op_create_channel(self, args: Dict[str, Any]) -> Dict[str, Any]:
        space = args["space"] or self.space
        capacity = args["capacity"] if args["bounded"] else None
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            # Container-create routing: the consistent-hash ring assigns
            # this name to another shard; create it there.
            self._router.client_for(args["name"]).create_channel(
                args["name"], space=space, capacity=capacity)
            return {}
        self.runtime.create_channel(args["name"], space, capacity=capacity)
        return {}

    def _op_create_queue(self, args: Dict[str, Any]) -> Dict[str, Any]:
        space = args["space"] or self.space
        capacity = args["capacity"] if args["bounded"] else None
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            self._router.client_for(args["name"]).create_queue(
                args["name"], space=space, capacity=capacity,
                auto_consume=args["auto_consume"])
            return {}
        self.runtime.create_queue(
            args["name"], space, capacity=capacity,
            auto_consume=args["auto_consume"],
        )
        return {}

    def _op_attach(self, args: Dict[str, Any]) -> Dict[str, Any]:
        mode_name = args["mode"]
        mode = _MODES.get(mode_name)
        if mode is None:
            raise RpcError(f"unknown connection mode {mode_name!r}")
        if self._router is not None \
                and not self._router.is_local(args["container"]):
            return self._attach_forwarded(args, mode)
        if args["wait"]:
            self.runtime.nameserver.wait_for(
                args["container"], timeout=args["wait_timeout"]
            )
        attention_filter = None
        if args["filter"]:
            # The device shipped a declarative filter spec: rebuild it
            # here so filtering runs on the cluster, before items cross
            # the network (the paper's selective-attention future work).
            from repro.core.filters import filter_from_spec

            spec = self.codec.decode(args["filter"])
            attention_filter = filter_from_spec(spec).predicate()
        container = self.runtime.lookup_container(args["container"])
        connection = container.attach(
            mode, owner=f"{self.session_id}:{self.client_name}",
            attention_filter=attention_filter,
        )
        if mode.can_get:
            # The device may hold user buffers for items it got; forward
            # reclamations so its client library can free them (§3.2.4).
            self._install_reclaim_forwarder(container)
        wire_id = next(self._conn_ids)
        with self._lock:
            self._connections[wire_id] = connection
        return {"connection_id": wire_id, "kind": container.KIND}

    def _attach_forwarded(self, args: Dict[str, Any],
                          mode: ConnectionMode) -> Dict[str, Any]:
        """Attach to a container another shard owns.

        The owner's peer link performs the real attach; the returned
        handle is wrapped in a
        :class:`~repro.runtime.shards._ForwardedConnection` and stored
        under a local wire id, so the device cannot tell the container
        is remote.  The attention filter is re-built from its spec and
        shipped onward — it executes on the *owner* shard, so filtered
        items never cross the shard link either.
        """
        from repro.runtime.shards import _ForwardedConnection

        name = args["container"]
        attention_filter = None
        if args["filter"]:
            from repro.core.filters import filter_from_spec

            spec = self.codec.decode(args["filter"])
            attention_filter = filter_from_spec(spec)
        client = self._router.client_for(name)
        remote = client.attach(
            name, mode,
            wait=args["wait_timeout"] if args["wait"] else None,
            attention_filter=attention_filter,
        )
        if mode.can_get:
            # Reclaims on the owner shard must reach this device: route
            # them through the router's interest registry (the shared
            # peer link delivers them; see §3.2.4 piggybacking).
            self._router.add_reclaim_interest(name, self)
        forwarded = _ForwardedConnection(remote, self._router, name, self)
        wire_id = next(self._conn_ids)
        with self._lock:
            self._connections[wire_id] = forwarded
        return {"connection_id": wire_id, "kind": remote.kind}

    def _op_detach(self, args: Dict[str, Any]) -> Dict[str, Any]:
        connection = self._take_connection(args["connection_id"])
        connection.detach()
        return {}

    def _op_put(self, args: Dict[str, Any]) -> Dict[str, Any]:
        connection = self._connection(args["connection_id"])
        value = self.codec.decode(args["payload"])
        timeout = args["timeout"] if args["has_timeout"] else None
        connection.put(
            args["timestamp"], value, size=len(args["payload"]),
            block=args["block"], timeout=timeout,
        )
        return {}

    def _op_get(self, args: Dict[str, Any]) -> Dict[str, Any]:
        connection = self._connection(args["connection_id"])
        vt_kind = args["vt_kind"]
        if vt_kind == ops.VT_NEWEST:
            vt = NEWEST
        elif vt_kind == ops.VT_OLDEST:
            vt = OLDEST
        elif vt_kind == ops.VT_CONCRETE:
            vt = args["timestamp"]
        else:
            raise RpcError(f"unknown virtual-time kind {vt_kind}")
        timeout = args["timeout"] if args["has_timeout"] else None
        if hasattr(connection.container, "get_item"):
            # Channels fan one item out to many consumers: run the
            # serializer once and pin the bytes on the item, so every
            # later get of the same item ships the cached buffer.
            item = connection.get_item(
                vt, block=args["block"], timeout=timeout
            )
            payload, _hit = item.encoded_payload(
                f"codec:{self.codec.name}", self.codec.encode
            )
            return {"timestamp": item.timestamp, "payload": payload}
        ts, value = connection.get(vt, block=args["block"], timeout=timeout)
        return {"timestamp": ts, "payload": self.codec.encode(value)}

    def _op_consume(self, args: Dict[str, Any]) -> Dict[str, Any]:
        self._connection(args["connection_id"]).consume(args["timestamp"])
        return {}

    def _op_consume_until(self, args: Dict[str, Any]) -> Dict[str, Any]:
        self._connection(args["connection_id"]).consume_until(
            args["timestamp"]
        )
        return {}

    def _op_ns_register(self, args: Dict[str, Any]) -> Dict[str, Any]:
        metadata = self.codec.decode(args["metadata"]) \
            if args["metadata"] else {}
        ttl = args["ttl"] if args.get("has_ttl") else None
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            # Name bindings ride the same ring as containers, so a
            # lookup from any shard finds any binding.
            self._router.client_for(args["name"]).ns_register(
                args["name"], args["kind"], metadata=metadata, ttl=ttl)
        else:
            self.runtime.nameserver.register(
                NameRecord(name=args["name"], kind=args["kind"],
                           address_space=self.space, metadata=metadata),
                ttl=ttl,
            )
        with self._lock:
            self._registered_names.append(args["name"])
        return {}

    def _op_ns_unregister(self, args: Dict[str, Any]) -> Dict[str, Any]:
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            self._router.client_for(args["name"]).ns_unregister(
                args["name"])
        else:
            self.runtime.nameserver.unregister(args["name"])
        with self._lock:
            if args["name"] in self._registered_names:
                self._registered_names.remove(args["name"])
        return {}

    def _op_ns_lookup(self, args: Dict[str, Any]) -> Dict[str, Any]:
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            kind, space, metadata = self._router.client_for(
                args["name"]).ns_lookup(args["name"])
            return {"kind": kind, "space": space,
                    "metadata": self.codec.encode(metadata)}
        record = self.runtime.nameserver.lookup(args["name"])
        return {
            "kind": record.kind,
            "space": record.address_space,
            "metadata": self.codec.encode(record.metadata),
        }

    def _op_ns_list(self, args: Dict[str, Any]) -> Dict[str, Any]:
        kind: Optional[str] = args["kind"] or None
        records = self.runtime.nameserver.list(kind=kind)
        names = [r.name for r in records]
        if self._router is not None and self._router.fanout:
            names = self._router.merged_ns_list(names, args["kind"])
        return {"names": names}

    def _op_ns_refresh(self, args: Dict[str, Any]) -> Dict[str, Any]:
        if self._router is not None \
                and not self._router.is_local(args["name"]):
            refreshed = self._router.client_for(
                args["name"]).ns_refresh(args["name"])
            return {"refreshed": refreshed}
        return {"refreshed": self.runtime.nameserver.refresh(
            args["name"])}

    def _op_ping(self, args: Dict[str, Any]) -> Dict[str, Any]:
        # The device's heartbeat doubles as the lease refresh for every
        # name it registered with a TTL: a silent device's names expire,
        # a merely idle one's do not.  Names the ring placed on another
        # shard are refreshed there, per name, over the peer link.
        with self._lock:
            names = list(self._registered_names)
        for name in names:
            if self._router is not None \
                    and not self._router.is_local(name):
                try:
                    self._router.client_for(name).ns_refresh(name)
                except StampedeError:
                    pass  # peer briefly unreachable: same as a lost ping
            else:
                self.runtime.nameserver.refresh(name)
        return {"payload": args["payload"]}

    def _op_bye(self, args: Dict[str, Any]) -> Dict[str, Any]:
        self.close()
        return {}

    def _op_resume(self, args: Dict[str, Any]) -> Dict[str, Any]:
        # RESUME is a server-level handshake (it swaps which session a
        # surrogate serves); the surrogate intercepts it before dispatch.
        # Reaching this handler means the server has no session table.
        raise RpcError("this server does not support session resume "
                       "(no session_grace configured)")

    def _op_set_realtime(self, args: Dict[str, Any]) -> Dict[str, Any]:
        # Real-time pacing runs on the end device (the client library owns
        # the clock it paces against); the surrogate only records the
        # declared cadence for diagnostics.
        self.realtime_tick = args["tick_period"]
        self.realtime_tolerance = args["tolerance"]
        return {}

    def _op_gc_report(self, args: Dict[str, Any]) -> Dict[str, Any]:
        sweeps = 0
        items = 0
        bytes_ = 0
        for space in self.runtime.address_spaces():
            sweeps += space.gc.report.sweeps
            # Reclamation happens both in daemon sweeps and inline inside
            # consume calls; container counters see every path.
            for container in space.containers():
                items += container.stats().reclaimed
            bytes_ += space.gc.report.bytes_reclaimed
        if self._router is not None and self._router.fanout:
            sweeps, items, bytes_ = self._router.merged_gc_report(
                (sweeps, items, bytes_))
        return {"sweeps": sweeps, "items": items, "bytes": bytes_}

    def _op_inspect(self, args: Dict[str, Any]) -> Dict[str, Any]:
        from repro.runtime.inspect import snapshot

        return {"snapshot": self.codec.encode(snapshot(self.runtime))}

    def _op_stats(self, args: Dict[str, Any]) -> Dict[str, Any]:
        # JSON rather than the session codec: the snapshot is diagnostic
        # data for dashboards and scrapers (tools/top.py, the Prometheus
        # exporter), which should not need an XDR decoder.
        import json

        from repro.runtime.inspect import observability_snapshot

        payload = observability_snapshot(self.runtime)
        if self._router is not None:
            # Which transport each of this shard's dialled peer links
            # rides ("shm" or "tcp") — the merge keys them by shard so
            # dashboards can show the data plane per process.
            links = self._router.link_transports
            if links:
                payload["peer_links"] = {
                    str(sid): kind for sid, kind in links.items()}
        if self._router is not None and self._router.fanout:
            # Sharded server: fold every peer's snapshot in, so
            # dashboards and scrapers see one logical server.  Peer-door
            # sessions (fanout=False) answer locally — that is what
            # stops the fan-out from recursing shard-to-shard.
            payload = self._router.merged_stats(payload)
        return {"snapshot": json.dumps(payload, default=str).encode("utf-8")}

    def _op_shard_map(self, args: Dict[str, Any]) -> Dict[str, Any]:
        import json

        if self._router is None:
            # Single-process server: one shard, itself, no peers.
            return {"shard_id": 0, "shards": 1, "peers": b"{}"}
        peers = {str(sid): list(address)
                 for sid, address in self._router.peers.items()}
        return {
            "shard_id": self._router.shard_id,
            "shards": self._router.nshards,
            "peers": json.dumps(peers).encode("utf-8"),
        }

    def _op_trace_dump(self, args: Dict[str, Any]) -> Dict[str, Any]:
        import json

        from repro.util.trace import GLOBAL_TRACER

        max_events = args.get("max_events", 0)
        events = GLOBAL_TRACER.export(limit=max_events or None)
        payload = {
            "label": f"{self.runtime.name}",
            "enabled": GLOBAL_TRACER.enabled,
            "dropped": GLOBAL_TRACER.dropped,
            "recorded": GLOBAL_TRACER.recorded,
            "events": events,
        }
        if args.get("clear"):
            GLOBAL_TRACER.clear()
        return {"events": json.dumps(payload, default=str).encode("utf-8")}

    def _op_span_dump(self, args: Dict[str, Any]) -> Dict[str, Any]:
        import json

        from repro.obs.spans import GLOBAL_SPANS

        max_spans = args.get("max_spans", 0)
        payload = GLOBAL_SPANS.dump_payload(
            label=self.runtime.name, limit=max_spans or None)
        if args.get("clear"):
            GLOBAL_SPANS.clear()
        if self._router is not None and self._router.fanout:
            # Fold every shard worker's ring + histograms into one
            # cluster timeline (same non-recursion rule as STATS).
            payload = self._router.merged_spans(
                payload, max_spans=max_spans,
                clear=bool(args.get("clear")))
        return {"spans": json.dumps(payload, default=str).encode("utf-8")}

    def _op_prof_dump(self, args: Dict[str, Any]) -> Dict[str, Any]:
        import json

        from repro.obs.profiler import GLOBAL_PROFILER

        payload = GLOBAL_PROFILER.snapshot()
        payload["label"] = self.runtime.name
        if args.get("clear"):
            GLOBAL_PROFILER.clear()
        if self._router is not None and self._router.fanout:
            payload = self._router.merged_profile(
                payload, clear=bool(args.get("clear")))
        return {"profile": json.dumps(payload,
                                      default=str).encode("utf-8")}

    _DISPATCH = {
        ops.OP_HELLO: _op_hello,
        ops.OP_CREATE_CHANNEL: _op_create_channel,
        ops.OP_CREATE_QUEUE: _op_create_queue,
        ops.OP_ATTACH: _op_attach,
        ops.OP_DETACH: _op_detach,
        ops.OP_PUT: _op_put,
        ops.OP_GET: _op_get,
        ops.OP_CONSUME: _op_consume,
        ops.OP_CONSUME_UNTIL: _op_consume_until,
        ops.OP_NS_REGISTER: _op_ns_register,
        ops.OP_NS_UNREGISTER: _op_ns_unregister,
        ops.OP_NS_LOOKUP: _op_ns_lookup,
        ops.OP_NS_LIST: _op_ns_list,
        ops.OP_PING: _op_ping,
        ops.OP_BYE: _op_bye,
        ops.OP_SET_REALTIME: _op_set_realtime,
        ops.OP_GC_REPORT: _op_gc_report,
        ops.OP_INSPECT: _op_inspect,
        ops.OP_RESUME: _op_resume,
        ops.OP_STATS: _op_stats,
        ops.OP_TRACE_DUMP: _op_trace_dump,
        ops.OP_SHARD_MAP: _op_shard_map,
        ops.OP_NS_REFRESH: _op_ns_refresh,
        ops.OP_SPAN_DUMP: _op_span_dump,
        ops.OP_PROF_DUMP: _op_prof_dump,
    }

    # -- connection table -------------------------------------------------------------

    def has_connection(self, wire_id: int) -> bool:
        """Whether *wire_id* names a live connection of this session."""
        with self._lock:
            return wire_id in self._connections

    def is_local_connection(self, wire_id: int) -> bool:
        """Whether *wire_id* names a live connection to a container held
        in this process (not one forwarded to another shard)."""
        with self._lock:
            return isinstance(self._connections.get(wire_id), Connection)

    def connection_count(self) -> int:
        """Number of live wire connections (RESUME reports it back)."""
        with self._lock:
            return len(self._connections)

    def _connection(self, wire_id: int) -> Connection:
        with self._lock:
            connection = self._connections.get(wire_id)
        if connection is None:
            raise RpcError(f"unknown connection id {wire_id}")
        return connection

    def connection_container(self, wire_id: Any) -> Optional[str]:
        """Container name behind *wire_id*, or None (unknown id, or a
        forwarded connection whose container lives on another shard).
        Span instrumentation uses this to label lane-dequeue hops."""
        with self._lock:
            connection = self._connections.get(wire_id)
        if connection is None:
            return None
        container = getattr(connection, "container", None)
        if container is not None:
            return getattr(container, "name", None)
        return getattr(connection, "container_name", None)

    def _take_connection(self, wire_id: int) -> Connection:
        with self._lock:
            connection = self._connections.pop(wire_id, None)
        if connection is None:
            raise RpcError(f"unknown connection id {wire_id}")
        return connection

    # -- teardown ----------------------------------------------------------------------

    def close(self) -> None:
        """Release everything the device held: connections detach (so GC
        stops waiting on it) and reclaim forwarders are removed.

        Mirrors "the surrogate thread ceases to exist when the end device
        goes away" (§3.2.2).
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            connections = list(self._connections.values())
            self._connections.clear()
            handlers = list(self._handlers.values())
            self._handlers.clear()
        for connection in connections:
            connection.detach()
        for container, forwarder in handlers:
            try:
                container.remove_reclaim_handler(forwarder)
            except ValueError:
                pass  # container already destroyed

"""Layer probes: each layer's public functions, alone, at one payload size.

Every probe is single-purpose and imports its target inside the function,
so a later PR that removes or renames a layer turns that probe's metrics
into ``None`` (reported under ``missing``) instead of breaking the ledger.
A probe reports the median of ``_BLOCKS`` timed blocks.

``python -m benchmarks.ledger.probes KIND`` is the echo child the
transport probes talk to.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List

from benchmarks.ledger import ROOT
from benchmarks.ledger.spec import LANES

now = time.perf_counter

_BLOCKS = 5
#: Bytes a timed block should move (frame streaming) or seconds it should
#: last (everything else): long enough to read, short enough that all
#: probes of a run fit in a few seconds.
_BLOCK_S = 0.04
_STREAM_BYTES = 8 << 20


def _median_us(block: Callable[[], float]) -> float:
    """Median over blocks of *block()*, seconds per operation -> us."""
    return statistics.median(block() for _ in range(_BLOCKS)) * 1e6


def _per_call(function: Callable[[], object]) -> Callable[[], float]:
    """A block that calls *function* for ``_BLOCK_S`` and returns s/call."""
    def block() -> float:
        calls = 0
        start = now()
        deadline = start + _BLOCK_S
        while True:
            function()
            calls += 1
            end = now()
            if end >= deadline:
                return (end - start) / calls
    return block


# -- marshal, ops -------------------------------------------------------------


def marshal(size: int) -> Dict[str, float]:
    from repro.marshal import get_codec

    codec = get_codec("xdr")
    value = os.urandom(size)
    encoded = codec.encode(value)
    return {
        "marshal.xdr_encode_us": _median_us(
            _per_call(lambda: codec.encode(value))),
        "marshal.xdr_decode_us": _median_us(
            _per_call(lambda: codec.decode(encoded))),
    }


def ops(size: int) -> Dict[str, float]:
    from repro.marshal import get_codec
    from repro.runtime import ops as wire

    payload = get_codec("xdr").encode(os.urandom(size))
    args = {"connection_id": 3, "timestamp": 12345, "payload": payload,
            "block": True, "has_timeout": False, "timeout": 0.0}
    request = wire.encode_request(7, wire.OP_PUT, args)
    results = {"timestamp": 12345, "payload": payload}
    response = wire.encode_ok_response(7, wire.OP_GET, results)
    batch = [request] * 16
    return {
        "ops.encode_request_us": _median_us(_per_call(
            lambda: wire.encode_request(7, wire.OP_PUT, args))),
        "ops.decode_request_us": _median_us(_per_call(
            lambda: wire.decode_request(request, payload_views=True))),
        "ops.encode_response_us": _median_us(_per_call(
            lambda: wire.encode_ok_response_parts(7, wire.OP_GET, results))),
        "ops.decode_response_us": _median_us(_per_call(
            lambda: wire.decode_response(response, wire.OP_GET))),
        "ops.encode_batch_us_per_item": _median_us(_per_call(
            lambda: wire.encode_batch_parts(wire.OP_PUT_BATCH, batch)))
        / len(batch),
    }


# -- transport.message over a connected socket pair ---------------------------


def message(size: int) -> Dict[str, float]:
    """Frames streamed writer thread -> reader; time inside each call."""
    from repro.transport.message import read_frame, write_frame

    frame = os.urandom(size)
    count = max(32, _STREAM_BYTES // size)
    write_us: List[float] = []
    read_us: List[float] = []
    rates: List[float] = []
    for _ in range(_BLOCKS):
        left, right = socket.socketpair()
        spent = [0.0]

        def writer() -> None:
            for _ in range(count):
                start = now()
                write_frame(left, frame)
                spent[0] += now() - start

        thread = threading.Thread(target=writer, name="ledger-probe-writer")
        try:
            begin = now()
            thread.start()
            reading = 0.0
            for _ in range(count):
                start = now()
                read_frame(right)
                reading += now() - start
            elapsed = now() - begin
        finally:
            thread.join()
            left.close()
            right.close()
        write_us.append(spent[0] / count * 1e6)
        read_us.append(reading / count * 1e6)
        rates.append(size * count / elapsed / 1e6)
    return {
        "message.write_frame_us": statistics.median(write_us),
        "message.read_frame_us": statistics.median(read_us),
        "message.frame_mb_per_s": statistics.median(rates),
    }


# -- transport.tcp and transport.shm: a frame echoed between two processes ----


def _echo_rtt(kind: str, size: int) -> float:
    """Median round-trip seconds of one *size*-byte frame to an echo child."""
    from repro.transport.shm import connect_shm
    from repro.transport.tcp import connect_tcp

    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.probes", kind],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT))
    link = None
    try:
        address = json.loads(child.stdout.readline())
        link = connect_shm(address) if kind == "shm" \
            else connect_tcp(tuple(address))
        frame = os.urandom(size)

        def echo() -> None:
            link.send_frame(frame)
            link.recv_frame(timeout=10.0)

        for _ in range(20):
            echo()
        return _median_us(_per_call(echo)) / 1e6
    finally:
        if link is not None:
            link.close()
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


def tcp(size: int) -> Dict[str, float]:
    return {"tcp.frame_rtt_us": _echo_rtt("tcp", size) * 1e6}


def shm(size: int) -> Dict[str, float]:
    rtt = _echo_rtt("shm", size)
    return {"shm.frame_rtt_us": rtt * 1e6,
            "shm.frame_mb_per_s": 2 * size / rtt / 1e6}


def _echo_child(kind: str) -> None:
    """Accept one link, echo frames until the parent hangs up."""
    import select

    from repro.errors import TransportError

    if kind == "shm":
        from repro.transport.shm import ShmListener
        door = ShmListener()
        print(json.dumps(door.address), flush=True)
        select.select([door.fileno()], [], [], 10.0)
        link = door.accept_pending()
        if link is None:  # nobody dialled
            door.close()
            return
    else:
        from repro.transport.tcp import TcpListener
        door = TcpListener()
        print(json.dumps(list(door.address)), flush=True)
        link = door.accept(timeout=10.0)
    try:
        while True:
            link.send_frame(link.recv_frame(timeout=10.0))
    except TransportError:
        pass  # the parent closed the link: done
    finally:
        link.close()
        door.close()


# -- runtime.reactor, runtime.lanes ------------------------------------------


def reactor(size: int) -> Dict[str, float]:
    from repro.runtime.reactor import Reactor

    loop = Reactor(name="ledger-probe-reactor")
    loop.start()
    ran = threading.Event()
    started = [0.0]

    def callback() -> None:
        started[0] = now()
        ran.set()

    def wake() -> float:
        ran.clear()
        begin = now()
        loop.call_soon(callback)
        ran.wait()
        return started[0] - begin

    try:
        return {"reactor.wake_us": _median_us(
            lambda: statistics.median(wake() for _ in range(100)))}
    finally:
        loop.stop()


def lanes(size: int) -> Dict[str, float]:
    from repro.runtime.lanes import LanePool

    pool = LanePool(LANES, name="ledger-probe-lane")
    ran = threading.Event()
    started = [0.0]

    def runner(task) -> None:
        if task is None:
            return
        started[0] = now()
        ran.set()

    client = pool.client(runner, name="probe")

    def latency() -> float:
        ran.clear()
        begin = now()
        client.submit(1)
        ran.wait()
        return started[0] - begin

    def throughput() -> float:
        burst = 2000
        ran.clear()
        begin = now()
        for _ in range(burst - 1):
            client.submit(None)
        client.submit(1)  # FIFO per client: the last to run
        ran.wait()
        return (now() - begin) / burst

    try:
        return {
            "lanes.submit_to_run_us": _median_us(
                lambda: statistics.median(latency() for _ in range(100))),
            "lanes.tasks_per_s": 1e6 / _median_us(throughput),
        }
    finally:
        pool.close()


# -- core.channel, core.squeue, core.gc in an in-process Runtime -------------


def containers(size: int) -> Dict[str, float]:
    from repro import OLDEST, ConnectionMode, Runtime

    # The collector daemon must not race the timed sweeps below.
    runtime = Runtime(gc_interval=3600.0)
    try:
        space = runtime.create_address_space("probe")
        runtime.create_channel("probe-channel", "probe")
        runtime.create_queue("probe-queue", "probe")
        value = os.urandom(size)
        burst = max(16, min(256, (4 << 20) // size))
        out: Dict[str, List[float]] = {}
        cursor = 0

        def timed(name: str, calls: List[Callable[[], object]]) -> None:
            start = now()
            for call in calls:
                call()
            out.setdefault(name, []).append((now() - start) / len(calls))

        for kind, container in (("channel", "probe-channel"),
                                ("squeue", "probe-queue")):
            src = runtime.attach(container, ConnectionMode.OUT)
            dst = runtime.attach(container, ConnectionMode.IN)
            for _ in range(_BLOCKS):
                stamps = range(cursor, cursor + burst)
                cursor += burst
                timed(f"{kind}.put_us",
                      [lambda ts=ts: src.put(ts, value) for ts in stamps])
                timed(f"{kind}.get_us",
                      [(lambda ts=ts: dst.get(OLDEST)) if kind == "squeue"
                       else (lambda ts=ts: dst.get(ts)) for ts in stamps])
                timed(f"{kind}.consume_us",
                      [lambda ts=ts: dst.consume(ts) for ts in stamps])
                if kind == "channel":
                    start = now()
                    space.gc.sweep()
                    out.setdefault("gc.sweep_us_per_item", []).append(
                        (now() - start) / burst)
        out["gc.idle_sweep_us"] = [
            _per_call(space.gc.sweep)() for _ in range(_BLOCKS)]
        out.pop("squeue.consume_us")  # not a declared metric
        return {name: statistics.median(values) * 1e6
                for name, values in out.items()}
    finally:
        runtime.shutdown()


PROBES = (marshal, ops, message, tcp, shm, reactor, lanes, containers)


def run_all(size: int) -> Dict[str, float]:
    """Every probe at *size* bytes; one that cannot run yields nothing."""
    values: Dict[str, float] = {}
    for probe in PROBES:
        try:
            values.update(probe(size))
        except (ImportError, AttributeError, TypeError) as exc:
            # The layer was removed or its signature changed: that is a
            # later PR's decision, not a benchmark failure.
            print(f"probe {probe.__name__} skipped: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return values


if __name__ == "__main__":
    _echo_child(sys.argv[1])

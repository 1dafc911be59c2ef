"""Ops that run on the reactor turn that read them, and ops that do not.

A put, get or consume on an idle connection to a local container runs
inline on the server's reactor; a busy connection, an op that must wait
and a reply the socket cannot take at once go to the lanes.  These tests
pin the promises that must survive the mix: issue order per connection,
no consume lost to a BYE, and a reactor that no single device can stall.
"""

import threading
import time

import pytest

from repro import ConnectionMode, Runtime, StampedeClient, StampedeServer
from repro.obs.metrics import GLOBAL_METRICS
from repro.runtime import ops
from repro.transport.tcp import connect_tcp


@pytest.fixture(params=[1, 8], ids=["lanes1", "lanes8"])
def cluster(request):
    runtime = Runtime(gc_interval=0.01)
    server = StampedeServer(runtime, lanes=request.param).start()
    yield runtime, server
    server.close()
    runtime.shutdown()


@pytest.fixture()
def suspends():
    """The in-process server's count of ops parked off their lane."""
    metrics_were_on = GLOBAL_METRICS.enabled
    GLOBAL_METRICS.enable()
    yield GLOBAL_METRICS.counter("runtime.lanes.suspends")
    if not metrics_were_on:
        GLOBAL_METRICS.disable()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestMixedPathOrder:
    def test_parked_get_holds_later_casts_in_issue_order(self, cluster,
                                                           suspends):
        runtime, server = cluster
        client = StampedeClient(*server.address, client_name="orderly")
        try:
            client.create_channel("order")
            conn = client.attach("order", ConnectionMode.INOUT)
            feeder = client.attach("order", ConnectionMode.OUT)
            conn.put(0, "zero")
            got = {}
            parked_before = suspends.value
            waiter = threading.Thread(target=lambda: got.update(
                item=conn.get(1, timeout=10.0)))
            waiter.start()
            assert _wait_until(lambda: suspends.value > parked_before)
            conn.put(2, "two", sync=False)
            conn.consume(0, sync=False)
            client.ping()  # both casts have been read and dispatched
            channel = runtime.lookup_container("order")
            assert channel.live_timestamps() == [0], (
                "a cast ran ahead of the parked get before it")
            feeder.put(1, "one")
            waiter.join(timeout=10.0)
            assert got["item"] == (1, "one")
            assert conn.get(2, timeout=5.0) == (2, "two")
            assert _wait_until(lambda: 0 not in channel.live_timestamps())
        finally:
            client.close()

    def test_consume_casts_then_bye_lose_nothing(self, cluster):
        runtime, server = cluster
        total = 40
        producer = StampedeClient(*server.address, client_name="producer")
        consumer = StampedeClient(*server.address, client_name="consumer")
        try:
            producer.create_channel("drain")
            out = producer.attach("drain", ConnectionMode.OUT)
            inp = consumer.attach("drain", ConnectionMode.IN)

            def produce():
                for ts in range(total):
                    out.put(ts, ts)
                    if ts % 4 == 0:
                        time.sleep(0.002)  # let some gets park

            feeder = threading.Thread(target=produce)
            feeder.start()
            for ts in range(total):
                assert inp.get(ts, timeout=10.0) == (ts, ts)
                inp.consume(ts, sync=False)
            consumer.close()  # BYE right behind the last consume cast
            feeder.join(timeout=10.0)
            # Every consume ran while the connection was still attached:
            # each reclaim reached the device, the last ones on BYE's
            # reply.
            reclaimed = {ts for name, ts in consumer.take_reclaims()
                         if name == "drain"}
            assert reclaimed == set(range(total))
            channel = runtime.lookup_container("drain")
            assert _wait_until(lambda: channel.live_timestamps() == [])
        finally:
            consumer.close()
            producer.close()


class TestReactorStall:
    def test_device_that_never_reads_cannot_stall_the_reactor(self):
        """One device floods gets of a 256 KiB item and never reads the
        replies; another device's ping and put/get exchange still finish
        promptly."""
        runtime = Runtime(gc_interval=0.05)
        server = StampedeServer(runtime).start()
        other = StampedeClient(*server.address, client_name="bystander")
        flood = connect_tcp(server.address)
        try:
            other.create_channel("big")
            other.attach("big", ConnectionMode.OUT).put(
                0, b"\x5a" * (256 * 1024))
            other.create_channel("small")
            small = other.attach("small", ConnectionMode.INOUT)

            def call(request_id, opcode, args):
                flood.send_frame(ops.encode_request(request_id, opcode,
                                                    args))
                return ops.decode_response(flood.recv_frame(timeout=5.0),
                                           opcode)

            call(1, ops.OP_HELLO, {"client_name": "flood", "codec": "xdr"})
            wire_id = call(2, ops.OP_ATTACH, {
                "container": "big", "mode": "in", "wait": False,
                "wait_timeout": 0.0, "filter": b"",
            }).results["connection_id"]
            for request_id in range(3, 3 + 64):  # 16 MiB of replies
                flood.send_frame(ops.encode_request(request_id, ops.OP_GET, {
                    "connection_id": wire_id, "vt_kind": ops.VT_CONCRETE,
                    "timestamp": 0, "block": False, "has_timeout": False,
                    "timeout": 0.0,
                }))
            time.sleep(0.3)  # the server has read the flood and is stuck

            start = time.monotonic()
            assert other.ping(b"still-there") == b"still-there"
            assert time.monotonic() - start < 1.0, "ping stalled"
            start = time.monotonic()
            small.put(1, "value")
            assert small.get(1, timeout=5.0) == (1, "value")
            assert time.monotonic() - start < 1.0, "exchange stalled"
        finally:
            flood.close()
            other.close()
            server.close()
            runtime.shutdown()

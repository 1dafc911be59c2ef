"""Client scenarios end to end: API, recovery, heartbeat, fault weather.

Each scenario drives a :class:`StampedeClient` against a real in-process
server and asserts what a program can see: results, error types,
exactly-once delivery across outages, lease behaviour, heartbeat-driven
recovery.

``FAULT_SEED`` parameterizes the injected weather, exactly as in
tests/integration/test_reconnect.py; CI runs the matrix.
"""

import os
import threading
import time

import pytest

from repro import (
    ConnectionMode,
    FaultPlan,
    RetryPolicy,
    Runtime,
    StampedeClient,
    StampedeServer,
)
from repro.errors import (
    ConnectionModeError,
    DuplicateTimestampError,
    NameNotBoundError,
    SessionResumeError,
    TransportClosedError,
)

SEED = int(os.environ.get("FAULT_SEED", "42"))

FAST_RETRY = RetryPolicy(max_attempts=10, base_delay=0.02,
                         multiplier=1.5, max_delay=0.2, jitter=0.1,
                         seed=SEED)

@pytest.fixture()
def cluster():
    runtime = Runtime(gc_interval=0.02)
    server = StampedeServer(runtime, session_grace=5.0).start()
    try:
        yield runtime, server
    finally:
        server.close()
        runtime.shutdown()


def _sever_server_side(server):
    (surrogate,) = server.surrogates()
    surrogate.connection.close()


class TestApi:
    def test_roundtrip_markers_and_error_types(self, cluster):
        from repro.core.timestamps import NEWEST, OLDEST
        _runtime, server = cluster
        with StampedeClient(*server.address, client_name="rt") as c:
            c.create_channel("frames")
            out = c.attach("frames", ConnectionMode.OUT)
            inp = c.attach("frames", ConnectionMode.IN)
            for ts in range(10):
                out.put(ts, {"n": ts})
            assert inp.get(4) == (4, {"n": 4})
            assert inp.get(OLDEST) == (0, {"n": 0})
            assert inp.get(NEWEST) == (9, {"n": 9})
            # Each misuse surfaces as its own error type.
            with pytest.raises(DuplicateTimestampError):
                out.put(4, "again")
            with pytest.raises(ConnectionModeError):
                inp.put(99, "wrong way")
            with pytest.raises(ConnectionModeError):
                out.get(0)
            with pytest.raises(NameNotBoundError):
                c.ns_lookup("never-bound")
            inp.consume_until(9)
            out.detach()
            inp.detach()
            assert bytes(c.ping(b"probe")) == b"probe"

    def test_queue_and_name_server(self, cluster):
        _runtime, server = cluster
        with StampedeClient(*server.address, client_name="q") as c:
            c.create_queue("jobs")
            q = c.attach("jobs", ConnectionMode.INOUT)
            for ts in range(5):
                q.put(ts, f"job-{ts}")
            # Queues dequeue in put order.
            assert [q.get()[1] for _ in range(5)] \
                == [f"job-{n}" for n in range(5)]
            c.ns_register("worker-1", "thread", metadata={"slot": 1})
            kind_, _space, metadata = c.ns_lookup("worker-1")
            assert (kind_, metadata) == ("thread", {"slot": 1})
            assert "worker-1" in c.ns_list()
            c.ns_unregister("worker-1")
            assert "worker-1" not in c.ns_list()

    def test_cast_stream_preserves_order_and_content(self, cluster):
        _runtime, server = cluster
        with StampedeClient(*server.address, client_name="cast",
                            batching=True, batch_linger=0.001) as c:
            c.create_channel("stream")
            out = c.attach("stream", ConnectionMode.OUT)
            inp = c.attach("stream", ConnectionMode.IN)
            for ts in range(150):  # crosses several size-cap flushes
                out.put(ts, f"item-{ts}", sync=False)
            out.put(150, "last")  # sync barrier
            for ts in range(151):
                timestamp, _value = inp.get(ts, timeout=10.0)
                assert timestamp == ts


class TestRecovery:
    def test_sever_resumes_session_same_handles(self, cluster):
        _runtime, server = cluster
        degraded = threading.Event()
        recovered = []
        client = StampedeClient(
            *server.address, client_name="flaky",
            retry=FAST_RETRY, rpc_timeout=2.0,
            on_degraded=lambda exc: degraded.set(),
            on_recovered=recovered.append,
        )
        try:
            session_id = client.session_id
            client.create_channel("frames")
            out = client.attach("frames", ConnectionMode.OUT)
            inp = client.attach("frames", ConnectionMode.IN)
            for ts in range(5):
                out.put(ts, f"frame-{ts}")

            _sever_server_side(server)

            for ts in range(5, 10):
                out.put(ts, f"frame-{ts}")
            for ts in range(10):
                assert inp.get(ts, timeout=5.0) == (ts, f"frame-{ts}")
            assert degraded.is_set()
            assert recovered == [2]  # both connections came back
            assert client.state == "connected"
            assert client.session_id == session_id
            assert server.parked_count == 0
        finally:
            client.close()

    def test_buffered_casts_survive_sever_exactly_once(self, cluster):
        runtime, server = cluster
        client = StampedeClient(*server.address, client_name="buf",
                                retry=FAST_RETRY, rpc_timeout=2.0,
                                batching=True, batch_linger=30.0)
        try:
            client.create_channel("buffered")
            out = client.attach("buffered", ConnectionMode.INOUT)
            for ts in range(4):
                out.put(ts, f"v{ts}", sync=False)  # coalescing
            _sever_server_side(server)
            time.sleep(0.1)
            # The barrier runs into the dead transport; the drained
            # casts replay on the resumed session, each exactly once.
            assert out.get(3, timeout=5.0) == (3, "v3")
            channel = runtime.lookup_container("buffered")
            deadline = time.monotonic() + 5.0
            while channel.live_timestamps() != [0, 1, 2, 3] \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert channel.live_timestamps() == [0, 1, 2, 3]
        finally:
            client.close()

    def test_grace_expiry_surfaces_session_resume_error(self):
        runtime = Runtime(gc_interval=0.02)
        server = StampedeServer(runtime, session_grace=0.2).start()
        try:
            client = StampedeClient(*server.address, client_name="late",
                                    retry=FAST_RETRY, rpc_timeout=2.0)
            client.create_channel("c")
            out = client.attach("c", ConnectionMode.OUT)
            _sever_server_side(server)
            time.sleep(0.8)  # grace long gone
            with pytest.raises(SessionResumeError):
                out.put(0, "too late")
            assert client.state == "closed"
            client.close()
        finally:
            server.close()
            runtime.shutdown()

    def test_reconnect_disabled_fails_fast(self, cluster):
        _runtime, server = cluster
        client = StampedeClient(*server.address, client_name="rigid",
                                retry=FAST_RETRY, reconnect=False)
        try:
            client.create_channel("c")
            out = client.attach("c", ConnectionMode.OUT)
            _sever_server_side(server)
            with pytest.raises(TransportClosedError):
                out.put(0, "x")
        finally:
            client.close()


class TestHeartbeat:
    def test_idle_client_recovers_via_heartbeat(self, cluster):
        _runtime, server = cluster
        recovered = threading.Event()
        client = StampedeClient(
            *server.address, client_name="idle",
            retry=FAST_RETRY, rpc_timeout=2.0, heartbeat=0.05,
            on_recovered=lambda n: recovered.set(),
        )
        try:
            client.create_channel("c")
            time.sleep(0.1)  # heartbeat running
            _sever_server_side(server)
            # No application call: the heartbeat alone must resume.
            assert recovered.wait(timeout=5.0)
            assert client.state == "connected"
        finally:
            client.close()

    def test_heartbeat_refreshes_lease(self, cluster):
        _runtime, server = cluster
        device = StampedeClient(*server.address, client_name="beater",
                                heartbeat=0.1)
        watcher = StampedeClient(*server.address, client_name="watcher")
        try:
            device.ns_register("cam-live", "thread", ttl=0.4)
            for _ in range(3):  # several TTLs pass
                time.sleep(0.3)
                assert "cam-live" in watcher.ns_list()
        finally:
            device.close()
            watcher.close()


class TestFaultWeather:
    def test_stream_survives_drops_and_a_sever(self, cluster):
        """The docs/FAULTS.md acceptance loop: 5% frame drop plus a
        forced mid-loop sever, zero application-visible errors."""
        _runtime, server = cluster
        dials = []

        def next_plan():
            # Dial 1 (setup handshake) is clean; every later dial
            # carries the weather.
            dials.append(1)
            if len(dials) == 1:
                return None
            return FaultPlan(seed=SEED + len(dials), drop_rate=0.05,
                             sever_at=[50])

        policy = RetryPolicy(max_attempts=10, base_delay=0.02,
                             multiplier=1.5, max_delay=0.2, jitter=0.1,
                             op_timeout=0.75, seed=SEED)

        def wrapper(connection):
            plan = next_plan()
            return connection if plan is None else plan.wrap(connection)

        client = StampedeClient(
            *server.address, client_name="weather",
            retry=policy, rpc_timeout=1.0,
            transport_wrapper=wrapper,
        )
        try:
            client.create_channel("stream")
            out = client.attach("stream", ConnectionMode.OUT)
            inp = client.attach("stream", ConnectionMode.IN)

            # Push the session onto a faulty link.
            _sever_server_side(server)

            # Zero application-visible errors, by construction: any
            # exception fails the test.
            for ts in range(30):
                out.put(ts, f"frame-{ts}")
                assert inp.get(ts) == (ts, f"frame-{ts}")
                inp.consume(ts)

            assert len(dials) >= 2  # at least one faulty redial
            assert client.state == "connected"
        finally:
            client.close()

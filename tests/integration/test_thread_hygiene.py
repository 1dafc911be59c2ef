"""Thread-leak checks: server and client shut down to a settled count.

The reactor front door replaced per-surrogate receive threads and the
accept/janitor threads with one event loop, so a full server + client
lifecycle must return the process to (almost) its starting thread
count.  A leak here compounds quickly: the seed leaked one thread per
device forever.
"""

import threading
import time

from repro import ConnectionMode, Runtime, StampedeClient, StampedeServer
from repro.obs.metrics import GLOBAL_METRICS


def _settled_count(baseline: int, timeout: float = 10.0) -> int:
    """Wait for daemon teardown threads to exit; return the count."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            break
        time.sleep(0.05)
    return threading.active_count()


def _inline_count(client: StampedeClient) -> int:
    """The server's ``runtime.lanes.inline`` counter, read over STATS."""
    return client.stats()["metrics"]["counters"]["runtime.lanes.inline"]


class TestThreadHygiene:
    def test_server_lifecycle_leaves_no_threads(self):
        before = threading.active_count()
        runtime = Runtime(gc_interval=0.05)
        server = StampedeServer(runtime, lease_timeout=5.0,
                                session_grace=5.0).start()
        server.close()
        runtime.shutdown()
        assert _settled_count(before) <= before

    def test_busy_cluster_settles_after_close(self):
        before = threading.active_count()
        runtime = Runtime(gc_interval=0.05)
        server = StampedeServer(runtime).start()
        clients = []
        try:
            for index in range(5):
                client = StampedeClient(*server.address,
                                        client_name=f"dev-{index}")
                clients.append(client)
            clients[0].create_channel("traffic")
            out = clients[0].attach("traffic", ConnectionMode.OUT)
            for ts in range(200):
                out.put(ts, ts, sync=False)
            out.put(200, 200)  # barrier
            for client in clients[1:]:
                inp = client.attach("traffic", ConnectionMode.IN)
                assert inp.get(200, timeout=10.0) == (200, 200)
        finally:
            for client in clients:
                client.close()
            server.close()
            runtime.shutdown()
        # Lane threads, the reactor, lifecycle workers, client receivers
        # and flushers must all be gone; allow a little slack for
        # unrelated daemon threads the test runner may own.
        assert _settled_count(before) <= before + 1

    def test_busy_devices_use_o_lanes_threads(self):
        """Active traffic from many devices never materialises
        per-connection threads: the server-side execution thread count
        is bounded by the configured lane count, and ops that cannot
        block run on the reactor without waking a lane at all."""
        metrics_were_on = GLOBAL_METRICS.enabled
        GLOBAL_METRICS.enable()
        runtime = Runtime(gc_interval=0.05)
        server = StampedeServer(runtime, lanes=4).start()
        clients = []
        try:
            for index in range(12):
                clients.append(StampedeClient(
                    *server.address, client_name=f"busy-{index}"))
            clients[0].create_channel("fanout")
            handles = [client.attach("fanout", ConnectionMode.INOUT)
                       for client in clients]
            inline_before = _inline_count(clients[0])
            for ts, handle in enumerate(handles):
                handle.put(ts, ts)
            for handle in handles:
                assert handle.get(0, timeout=10.0) == (0, 0)
            lane_threads = sum(
                1 for thread in threading.enumerate()
                if thread.name.startswith("dstampede-lane")
            )
            assert lane_threads <= 4, (
                f"{lane_threads} lane threads for a 4-lane server"
            )
            assert server.lane_pool.started_threads() <= 4
            # Every put and get found its connection idle: 24 ops inline.
            assert _inline_count(clients[0]) - inline_before \
                >= 2 * len(handles)
        finally:
            for client in clients:
                client.close()
            server.close()
            runtime.shutdown()
            if not metrics_were_on:
                GLOBAL_METRICS.disable()

    def test_idle_devices_use_no_threads(self):
        runtime = Runtime(gc_interval=0.05)
        server = StampedeServer(runtime).start()
        clients = []
        try:
            baseline = threading.active_count()
            for index in range(10):
                clients.append(StampedeClient(
                    *server.address, client_name=f"idle-{index}"))
            deadline = time.monotonic() + 5.0
            while server.device_count < 10 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.device_count == 10
            # Each client owns its receiver thread; the SERVER must not
            # have added any thread for these idle devices.
            client_threads = sum(
                1 for thread in threading.enumerate()
                if thread.name.startswith(("rpc-recv", "rpc-batch"))
            )
            server_growth = (threading.active_count() - baseline
                            - client_threads)
            assert server_growth <= 0, (
                f"server grew {server_growth} threads for 10 idle "
                f"devices"
            )
        finally:
            for client in clients:
                client.close()
            server.close()
            runtime.shutdown()

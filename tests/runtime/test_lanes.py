"""Unit and property tests for the bounded lane pool.

The lane pool's whole contract is "per-client order is exactly submit
order, at any lane count" — so the property test drives random
connection↔lane interleavings, single submits vs. submit_many chunks,
simulated blocking ops (suspend → offload → resume, the surrogate's
probe protocol), and mid-stream evictions (BYEs), then checks every
client's execution log against its submission log.  ``lanes=1`` is the
strictest oracle: every client shares one thread, so any ordering bug
becomes a deterministic failure instead of a rare race.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import lanes
from repro.runtime.lanes import LanePool, STOP


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.002)
    return True


class TestDefaults:
    def test_default_lane_count_env_override(self, monkeypatch):
        monkeypatch.setenv(lanes.LANES_ENV, "7")
        assert lanes.default_lane_count() == 7

    def test_default_lane_count_rejects_garbage(self, monkeypatch):
        expected = min(32, 4 * (os.cpu_count() or 1))
        monkeypatch.setenv(lanes.LANES_ENV, "zero")
        assert lanes.default_lane_count() == expected
        monkeypatch.setenv(lanes.LANES_ENV, "-3")
        assert lanes.default_lane_count() == expected

    def test_pool_rejects_non_positive(self):
        with pytest.raises(ValueError):
            LanePool(0)

    def test_lazy_threads(self):
        pool = LanePool(8)
        try:
            assert pool.started_threads() == 0
            done = threading.Event()
            client = pool.client(lambda task: done.set(), name="lazy")
            client.submit("x")
            assert done.wait(5.0)
            # One submit materialises at most the one lane it mapped to.
            assert pool.started_threads() == 1
        finally:
            pool.close()


class TestOrdering:
    def test_fifo_single_client(self):
        pool = LanePool(4)
        log = []
        try:
            client = pool.client(log.append, name="fifo")
            for i in range(100):
                client.submit(i)
            assert client.drain(timeout=5.0)
            assert log == list(range(100))
        finally:
            pool.close()

    def test_submit_many_chunk_is_back_to_back(self):
        pool = LanePool(2)
        log = []
        try:
            client = pool.client(log.append, name="chunk")
            client.submit_many(list(range(50)))
            client.submit_many(list(range(50, 80)))
            assert client.drain(timeout=5.0)
            assert log == list(range(80))
        finally:
            pool.close()

    def test_clients_sharing_a_lane_interleave_but_stay_ordered(self):
        pool = LanePool(1)  # force every client onto the same lane
        logs = {name: [] for name in ("a", "b", "c")}
        try:
            clients = {
                name: pool.client(logs[name].append, name=name)
                for name in logs
            }
            for i in range(30):
                for name, client in clients.items():
                    client.submit(i)
            for client in clients.values():
                assert client.drain(timeout=5.0)
            for name in logs:
                assert logs[name] == list(range(30))
        finally:
            pool.close()


class TestSuspendResume:
    def test_offloaded_op_blocks_later_tasks_until_resume(self):
        """The surrogate's blocking-op protocol: suspend + STOP parks the
        client; tasks submitted meanwhile run only after resume()."""
        pool = LanePool(2)
        log = []
        release = threading.Event()

        def runner(task):
            if task == "block":
                client = lanes.current_client()
                client.suspend()

                def offload():
                    release.wait(5.0)
                    log.append("block")
                    client.resume()

                threading.Thread(target=offload, daemon=True).start()
                return STOP
            log.append(task)

        try:
            client = pool.client(runner, name="offload")
            client.submit("a")
            client.submit("block")
            client.submit("z")
            assert _wait_until(lambda: log == ["a"])
            time.sleep(0.05)
            assert log == ["a"], "suspended client ran a later task"
            release.set()
            assert client.drain(timeout=5.0)
            assert log == ["a", "block", "z"]
        finally:
            pool.close()

    def test_suspended_client_does_not_wedge_lane_mates(self):
        pool = LanePool(1)
        release = threading.Event()
        mate_log = []

        def blocker(task):
            client = lanes.current_client()
            client.suspend()

            def offload():
                release.wait(5.0)
                client.resume()

            threading.Thread(target=offload, daemon=True).start()
            return STOP

        try:
            blocked = pool.client(blocker, name="blocked")
            mate = pool.client(mate_log.append, name="mate")
            blocked.submit("block")
            for i in range(10):
                mate.submit(i)
            # The lane-mate makes progress while the other client waits.
            assert mate.drain(timeout=5.0)
            assert mate_log == list(range(10))
            release.set()
            assert blocked.drain(timeout=5.0)
        finally:
            pool.close()

    def test_mid_chunk_stop_requeues_remainder_in_order(self):
        pool = LanePool(1)
        log = []

        def runner(task):
            if task == "block" and "block" not in log:
                client = lanes.current_client()
                client.suspend()

                def offload():
                    log.append("block")
                    client.resume()

                threading.Thread(target=offload, daemon=True).start()
                return STOP
            log.append(task)

        try:
            client = pool.client(runner, name="midchunk")
            client.submit_many(["a", "b", "block", "c", "d"])
            assert client.drain(timeout=5.0)
            assert log == ["a", "b", "block", "c", "d"]
        finally:
            pool.close()


class TestRunInline:
    def test_idle_client_runs_on_the_calling_thread(self):
        pool = LanePool(2)
        seen = []

        def runner(task):
            seen.append((task, threading.current_thread(),
                         lanes.current_client()))

        try:
            client = pool.client(runner, name="inline")
            assert client.run_inline("a")
            assert client.run_inline(["b", "c"])
            me = threading.current_thread()
            assert seen == [(t, me, client) for t in "abc"]
            assert lanes.current_client() is None
            assert pool.started_threads() == 0, "no lane was woken"
        finally:
            pool.close()

    def test_busy_client_refuses_and_order_holds(self):
        pool = LanePool(1)
        log = []
        gate = threading.Event()

        def runner(task):
            if task == "slow":
                gate.wait(5.0)
            log.append(task)

        try:
            client = pool.client(runner, name="busy")
            client.submit("slow")
            client.submit("queued")
            assert not client.run_inline("refused")
            client.submit("refused")
            gate.set()
            assert client.drain(timeout=5.0)
            assert log == ["slow", "queued", "refused"]
            assert client.run_inline("idle-again")
            assert log[-1] == "idle-again"
        finally:
            pool.close()

    def test_inline_suspend_holds_later_tasks_until_resume(self):
        """An inline element that offloads (suspend + STOP) parks the
        client like a lane would; resume() then starts the lane thread
        that nothing had started yet."""
        pool = LanePool(1)
        log = []
        release = threading.Event()

        def runner(task):
            if task == "block":
                client = lanes.current_client()
                client.suspend()

                def offload():
                    release.wait(5.0)
                    log.append("block")
                    client.resume()

                threading.Thread(target=offload, daemon=True).start()
                return STOP
            log.append(task)

        try:
            client = pool.client(runner, name="inline-offload")
            assert client.run_inline(["a", "block", "b"])
            client.submit("c")
            assert not client.run_inline("d"), "suspended is not idle"
            client.submit("d")
            time.sleep(0.05)
            assert log == ["a"]
            release.set()
            assert client.drain(timeout=5.0)
            assert log == ["a", "block", "b", "c", "d"]
        finally:
            pool.close()


@pytest.mark.parametrize("lane_count", [1, 8])
@given(steps=st.lists(st.sampled_from(["inline", "submit", "block"]),
                      max_size=20))
@settings(max_examples=25, deadline=None)
def test_mixed_inline_and_lane_order_preserved(lane_count, steps):
    """Whatever mix of inline runs, lane submits and offloading ops one
    connection issues, its tasks execute in issue order."""
    pool = LanePool(lane_count)
    log = []
    workers = []

    def runner(task):
        seq, blocking = task
        if blocking:
            client = lanes.current_client()
            client.suspend()

            def offload():
                time.sleep(0.001)
                log.append(seq)
                client.resume()

            worker = threading.Thread(target=offload, daemon=True)
            workers.append(worker)
            worker.start()
            return STOP
        log.append(seq)

    try:
        client = pool.client(runner, name="mixed")
        for seq, step in enumerate(steps):
            task = (seq, step == "block")
            if step == "submit" or not client.run_inline(task):
                client.submit(task)
        assert client.drain(timeout=10.0)
        for worker in workers:
            worker.join(timeout=5.0)
        assert log == list(range(len(steps)))
    finally:
        pool.close()


class TestDrainEvict:
    def test_drain_from_lane_thread_runs_inline(self):
        """close() can land on a lane thread (send-failure path); drain
        must execute the queue in place instead of self-deadlocking."""
        pool = LanePool(1)
        log = []
        drained = []

        def runner(task):
            if task == "drain-me":
                drained.append(lanes.current_client().drain(timeout=2.0))
            else:
                log.append(task)

        try:
            client = pool.client(runner, name="inline")
            client.submit_many(["drain-me", "a", "b"])
            assert _wait_until(lambda: drained == [True])
            assert log == ["a", "b"]
        finally:
            pool.close()

    def test_evicted_client_drops_queue_and_refuses_new_work(self):
        pool = LanePool(1)
        log = []
        gate = threading.Event()

        def runner(task):
            if task == "gate":
                gate.wait(5.0)
            else:
                log.append(task)

        try:
            hold = pool.client(lambda _: gate.wait(5.0), name="hold")
            hold.submit("gate")  # occupy the single lane
            client = pool.client(log.append, name="victim")
            client.submit("never-1")
            client.submit("never-2")
            client.evict()
            client.submit("never-3")
            assert client.pending() == 0
            gate.set()
            assert hold.drain(timeout=5.0)
            assert client.drain(timeout=5.0)
            assert log == []
        finally:
            pool.close()

    def test_close_joins_under_one_deadline(self):
        pool = LanePool(32)
        try:
            # Materialise every lane thread.
            clients = [pool.client(lambda _: None, name=f"c{i}")
                       for i in range(32)]
            for client in clients:
                client.submit("x")
            for client in clients:
                assert client.drain(timeout=5.0)
            assert pool.started_threads() == 32
        finally:
            started = time.monotonic()
            assert pool.close(timeout=2.0)
            elapsed = time.monotonic() - started
        # Concurrent join under one deadline: nowhere near 2s × 32.
        assert elapsed < 2.0, f"close took {elapsed:.2f}s"
        assert pool.started_threads() == 0


class TestThreadBound:
    def test_thread_count_is_o_lanes_not_o_clients(self):
        pool = LanePool(4)
        logs = [[] for _ in range(64)]
        try:
            clients = [pool.client(logs[i].append, name=f"conn{i}")
                       for i in range(64)]
            for round_no in range(5):
                for client in clients:
                    client.submit(round_no)
            for client in clients:
                assert client.drain(timeout=10.0)
            assert pool.started_threads() <= 4
            for log in logs:
                assert log == list(range(5))
        finally:
            pool.close()


# -- the ordering property ----------------------------------------------------

#: One client's scripted traffic: a list of steps, each either
#: ``("task",)``, ``("chunk", n)``, ``("block",)`` (a simulated blocking
#: op that suspends + offloads + resumes, like the surrogate's probe
#: protocol), or ``("bye",)`` (evict mid-stream; later steps are dropped).
_STEP = st.one_of(
    st.just(("task",)),
    st.tuples(st.just("chunk"), st.integers(min_value=1, max_value=5)),
    st.just(("block",)),
    st.just(("bye",)),
)
_SCRIPTS = st.lists(
    st.lists(_STEP, min_size=0, max_size=12),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("lane_count", [1, 8, 32])
@given(scripts=_SCRIPTS)
@settings(max_examples=25, deadline=None)
def test_per_connection_order_preserved(lane_count, scripts):
    """Per-connection execution order equals submission order for every
    random interleaving of connections, chunks, blocking offloads and
    mid-stream BYEs — at 1, 8 and 32 lanes."""
    pool = LanePool(lane_count)
    logs = [[] for _ in scripts]
    offloads = []

    def make_runner(log):
        def runner(task):
            seq, blocking = task
            if blocking:
                client = lanes.current_client()
                client.suspend()

                def offload():
                    log.append(seq)
                    client.resume()

                worker = threading.Thread(target=offload, daemon=True)
                offloads.append(worker)
                worker.start()
                return STOP
            log.append(seq)
        return runner

    try:
        clients = [pool.client(make_runner(logs[i]), name=f"conn{i}")
                   for i in range(len(scripts))]
        submitted = [[] for _ in scripts]
        evicted = [False] * len(scripts)
        # Interleave round-robin across connections so lanes see mixed
        # traffic, exactly like concurrent devices.
        position = [0] * len(scripts)
        progressed = True
        while progressed:
            progressed = False
            for i, script in enumerate(scripts):
                if position[i] >= len(script) or evicted[i]:
                    continue
                step = script[position[i]]
                position[i] += 1
                progressed = True
                if step[0] == "task":
                    seq = len(submitted[i])
                    submitted[i].append(seq)
                    clients[i].submit((seq, False))
                elif step[0] == "chunk":
                    chunk = []
                    for _ in range(step[1]):
                        seq = len(submitted[i])
                        submitted[i].append(seq)
                        chunk.append((seq, False))
                    clients[i].submit_many(chunk)
                elif step[0] == "block":
                    seq = len(submitted[i])
                    submitted[i].append(seq)
                    clients[i].submit((seq, True))
                else:  # bye
                    clients[i].evict()
                    evicted[i] = True
        for i, client in enumerate(clients):
            assert client.drain(timeout=10.0), f"conn{i} did not drain"
        for worker in offloads:
            worker.join(timeout=5.0)
        for i, log in enumerate(logs):
            if evicted[i]:
                # Whatever ran before the BYE ran in order.
                assert log == submitted[i][:len(log)]
            else:
                assert log == submitted[i]
    finally:
        pool.close()

"""The shared heartbeat scheduler (one timer thread per process).

Every client's heartbeat is multiplexed onto one process-wide
timer thread.  These tests pin the sharing contract — N registrations
cost one timer, the timer retires when the last registration goes, one
failing tick never takes down its neighbours.
"""

import threading
import time

import pytest

from repro.client.scheduler import HeartbeatScheduler


def _wait_until(predicate, deadline_s=5.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestSyncScheduler:
    def test_two_clients_share_one_timer_thread(self):
        scheduler = HeartbeatScheduler(name="test-heartbeat")
        ticks_a, ticks_b = [], []
        handle_a = scheduler.register(
            0.01, lambda: ticks_a.append(1) or 0.01)
        handle_b = scheduler.register(
            0.01, lambda: ticks_b.append(1) or 0.01)
        try:
            assert _wait_until(lambda: len(ticks_a) >= 3
                               and len(ticks_b) >= 3)
            assert scheduler.live_count == 2
            thread = scheduler.thread
            assert thread is not None and thread.is_alive()
            assert sum(1 for t in threading.enumerate()
                       if t.name == "test-heartbeat") == 1
        finally:
            handle_a.cancel()
            handle_b.cancel()

    def test_thread_retires_after_last_cancel(self):
        scheduler = HeartbeatScheduler(name="test-retire")
        handle = scheduler.register(0.01, lambda: 0.01)
        thread = scheduler.thread
        assert thread is not None
        handle.cancel(join_timeout=2.0)
        assert scheduler.live_count == 0
        assert scheduler.thread is None
        assert _wait_until(lambda: not thread.is_alive())

    def test_thread_restarts_on_reregister(self):
        scheduler = HeartbeatScheduler(name="test-restart")
        first = scheduler.register(0.01, lambda: 0.01)
        first.cancel(join_timeout=2.0)
        ticks = []
        second = scheduler.register(
            0.01, lambda: ticks.append(1) or 0.01)
        try:
            assert _wait_until(lambda: len(ticks) >= 2)
        finally:
            second.cancel()

    def test_callback_returning_none_unregisters(self):
        scheduler = HeartbeatScheduler(name="test-none")
        ticks = []
        scheduler.register(0.01, lambda: ticks.append(1))  # None return
        assert _wait_until(lambda: scheduler.live_count == 0)
        count = len(ticks)
        time.sleep(0.05)
        assert len(ticks) == count == 1  # exactly one tick, then gone

    def test_raising_tick_unregisters_only_itself(self):
        scheduler = HeartbeatScheduler(name="test-raise")
        healthy = []

        def bad():
            raise RuntimeError("boom")

        scheduler.register(0.01, bad)
        handle = scheduler.register(
            0.01, lambda: healthy.append(1) or 0.01)
        try:
            assert _wait_until(lambda: len(healthy) >= 3)
            assert scheduler.live_count == 1
        finally:
            handle.cancel()

    def test_rejects_nonpositive_interval(self):
        scheduler = HeartbeatScheduler()
        with pytest.raises(ValueError):
            scheduler.register(0.0, lambda: None)

    def test_intervals_are_per_registration(self):
        scheduler = HeartbeatScheduler(name="test-mixed")
        fast, slow = [], []
        handle_fast = scheduler.register(
            0.01, lambda: fast.append(1) or 0.01)
        handle_slow = scheduler.register(
            0.08, lambda: slow.append(1) or 0.08)
        try:
            assert _wait_until(lambda: len(fast) >= 8)
            assert len(slow) <= len(fast) // 2
        finally:
            handle_fast.cancel()
            handle_slow.cancel()


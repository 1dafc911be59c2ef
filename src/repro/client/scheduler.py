"""One shared heartbeat timer thread for every client in the process.

The seed client spawned a dedicated heartbeat thread per
:class:`~repro.client.client.StampedeClient`, which is invisible at one
device and ruinous at a gateway multiplexing hundreds: N devices meant
N threads that each wake, ping, and sleep.  This module replaces them
with a single process-wide :class:`HeartbeatScheduler` — a heap of
deadlines served by one daemon timer thread that exists only while at
least one client is registered (refcounted away when the last
unregisters, so thread-hygiene invariants hold).

Ticks run **inline** on the timer thread and therefore must be quick;
anything that can block for long — a reconnect backoff ladder, a retry
loop — must be handed off (the sync client spawns a transient
single-flight recovery thread; see ``StampedeClient._spawn_recovery``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.util.logging import get_logger

_log = get_logger("client.heartbeat")

#: A tick callback returns the next interval in seconds, or ``None`` to
#: unregister itself (client closed, session gone).
TickCallback = Callable[[], Optional[float]]


class HeartbeatHandle:
    """One registered heartbeat; ``cancel()`` stops it."""

    __slots__ = ("_scheduler", "_seq", "cancelled")

    def __init__(self, scheduler: "HeartbeatScheduler", seq: int) -> None:
        self._scheduler = scheduler
        self._seq = seq
        self.cancelled = False

    def cancel(self, join_timeout: float = 1.0) -> None:
        """Unregister; if this was the last heartbeat, stop the timer
        thread and join it (bounded — a tick in flight finishes first)."""
        self._scheduler._cancel(self, join_timeout)

    @property
    def active(self) -> bool:
        """Whether this heartbeat is still registered."""
        return not self.cancelled


class HeartbeatScheduler:
    """A deadline heap served by (at most) one shared timer thread."""

    def __init__(self, name: str = "dstampede-heartbeat") -> None:
        self._name = name
        self._cond = threading.Condition()
        # heap of (deadline, seq, handle, callback); cancelled handles
        # are skipped lazily when they surface at the heap top.
        self._heap: List[Tuple[float, int, HeartbeatHandle,
                               TickCallback]] = []
        self._live = 0
        self._seq = itertools.count()
        self._thread: Optional[threading.Thread] = None

    def register(self, interval: float,
                 callback: TickCallback) -> HeartbeatHandle:
        """Run *callback* every *interval* seconds (first tick after one
        interval) until it returns ``None`` or the handle is cancelled."""
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        with self._cond:
            handle = HeartbeatHandle(self, next(self._seq))
            heapq.heappush(
                self._heap,
                (time.monotonic() + interval, handle._seq, handle,
                 callback),
            )
            self._live += 1
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name=self._name, daemon=True)
                self._thread.start()
            self._cond.notify_all()
            return handle

    @property
    def thread(self) -> Optional[threading.Thread]:
        """The timer thread while any heartbeat is registered."""
        with self._cond:
            return self._thread if self._live else None

    @property
    def live_count(self) -> int:
        """Number of registered (uncancelled) heartbeats."""
        with self._cond:
            return self._live

    def _cancel(self, handle: HeartbeatHandle,
                join_timeout: float) -> None:
        with self._cond:
            if handle.cancelled:
                return
            handle.cancelled = True
            self._live -= 1
            last = self._live == 0
            thread = self._thread
            self._cond.notify_all()
        # The timer thread exits on its own once nothing is registered;
        # join so callers (client.close(), tests) observe a settled
        # thread count.  A tick may be in flight — the join is bounded,
        # and joining from the timer thread itself (a tick closing its
        # own client) is skipped.
        if (last and thread is not None
                and thread is not threading.current_thread()):
            thread.join(timeout=join_timeout)

    def _run(self) -> None:
        with self._cond:
            while True:
                while self._heap and self._heap[0][2].cancelled:
                    heapq.heappop(self._heap)
                if not self._live:
                    # Last heartbeat gone: retire the thread (a later
                    # register starts a fresh one).
                    if self._thread is threading.current_thread():
                        self._thread = None
                    return
                now = time.monotonic()
                deadline = self._heap[0][0]
                if deadline > now:
                    self._cond.wait(timeout=deadline - now)
                    continue
                _deadline, seq, handle, callback = heapq.heappop(
                    self._heap)
                self._cond.release()
                try:
                    interval = self._tick(handle, callback)
                finally:
                    self._cond.acquire()
                if interval is None:
                    if not handle.cancelled:
                        handle.cancelled = True
                        self._live -= 1
                elif not handle.cancelled:
                    heapq.heappush(
                        self._heap,
                        (time.monotonic() + interval, seq, handle,
                         callback),
                    )

    @staticmethod
    def _tick(handle: HeartbeatHandle,
              callback: TickCallback) -> Optional[float]:
        if handle.cancelled:
            return None
        try:
            return callback()
        except Exception:  # noqa: BLE001 - one bad tick must not kill all
            _log.exception("heartbeat tick raised; unregistering it")
            return None


#: The process-wide scheduler every sync client shares.
GLOBAL_HEARTBEATS = HeartbeatScheduler()

__all__ = ["GLOBAL_HEARTBEATS", "HeartbeatHandle", "HeartbeatScheduler"]

"""Bounded lane pool: O(lanes) threads for O(devices) connections.

The paper's Octopus model (§4) attaches *many* tentacles — cameras,
iPaqs, trackers — to one cluster body.  The original surrogate design
("a specific surrogate thread is created on the cluster on behalf of the
new end device", §3.2.2) materialises cluster threads per device; our
per-connection serial executors did the same one layer down, so 1000
connected devices meant ~1000 worker threads of stack and scheduler
pressure behind a single-threaded reactor.

A :class:`LanePool` replaces the swarm with a fixed set of **lanes**.
Each wire connection binds a :class:`LaneClient` — a FIFO sub-queue
affinity-mapped to one lane at bind time — and every lane thread drains
the sub-queues assigned to it round-robin, one element at a time.  The
ordering contract is unchanged from the executor design:

* tasks of one client execute in submit order, never concurrently;
* a :meth:`LaneClient.submit_many` chunk executes back to back;
* tasks of *different* clients have no mutual order (true before too —
  separate executors ran in parallel).

Liveness is the part a bounded pool must add deliberately: a container
op that blocks (a consumer's ``get`` waiting for the producer's next
put) would wedge every connection sharing its lane — fatal at
``lanes=1``, where the producer's put sits *behind* the blocked get.
The runner cooperates instead: it probes non-blockingly, and when an op
genuinely must wait it moves it to a transient worker, calls
:meth:`LaneClient.suspend`, and returns :data:`STOP`; the lane moves on
to other clients while the suspended client's later tasks wait — order
preserved — until :meth:`LaneClient.resume`.

A client that is idle need not wake a lane at all:
:meth:`LaneClient.run_inline` runs an element on the calling thread (the
server's reactor, for ops that cannot block) under the same bookkeeping,
so issue order and the suspend protocol hold across both paths.

Idle lanes park on a condition variable: zero wakeups, matching the
reactor's discipline.  Lane threads start lazily, so a pool sized
``min(32, 4×cpu)`` costs nothing until traffic actually fans out.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.obs.metrics import COUNT_BOUNDS, GLOBAL_METRICS as _metrics
from repro.util.logging import get_logger

_log = get_logger("runtime.lanes")

#: Environment override for the default lane count.
LANES_ENV = "DSTAMPEDE_LANES"

#: Sentinel a runner returns to stop its client's current element:
#: the runner has suspended the client (see :meth:`LaneClient.suspend`)
#: and any unexecuted tasks of the element are pushed back in order.
STOP = object()

#: One decoded request, opaque to the pool (the surrogate's
#: ``(request_id, opcode, args)`` tuples in practice).
Task = Any
#: ``runner(task) -> None | STOP``.
Runner = Callable[[Task], Any]

_SUBMITTED = _metrics.counter("runtime.lanes.submitted")
_INLINE = _metrics.counter("runtime.lanes.inline")
_EXECUTED = _metrics.counter("runtime.lanes.executed")
_OFFLOADS = _metrics.counter("runtime.lanes.suspends")
_EVICTIONS = _metrics.counter("runtime.lanes.evictions")
_DEPTH_HIST = _metrics.histogram(
    "runtime.lanes.queue_depth", bounds=COUNT_BOUNDS, unit="tasks")

_tls = threading.local()


def current_client() -> Optional["LaneClient"]:
    """The :class:`LaneClient` whose task the calling thread is
    executing, or ``None`` off the lane threads.

    Runners use this to decide whether blocking is safe: on a dedicated
    thread (observer ops, offloaded blocking ops, thread-mode receive
    loops) it is; on a lane thread it would stall every other client of
    the lane.
    """
    return getattr(_tls, "client", None)


def default_lane_count() -> int:
    """``DSTAMPEDE_LANES`` when set and valid, else ``min(32, 4×cpu)``."""
    raw = os.environ.get(LANES_ENV, "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            _log.warning("ignoring non-integer %s=%r", LANES_ENV, raw)
        else:
            if value >= 1:
                return value
            _log.warning("ignoring non-positive %s=%r", LANES_ENV, raw)
    return min(32, 4 * (os.cpu_count() or 1))


class LaneClient:
    """One connection's FIFO sub-queue, affinity-mapped to one lane.

    All state is guarded by the owning lane's lock.  A client is
    *scheduled* while it sits in its lane's ready deque or a lane thread
    is executing one of its elements; at most one thread ever runs a
    given client's tasks, which is the whole ordering argument.
    """

    __slots__ = ("_lane", "_runner", "name", "_tasks", "_scheduled",
                 "_active", "_suspended", "_evicted")

    def __init__(self, lane: "_Lane", runner: Runner, name: str) -> None:
        self._lane = lane
        self._runner = runner
        self.name = name
        #: FIFO of elements: single tasks, or lists (submit_many chunks).
        self._tasks: Deque[Any] = deque()
        self._scheduled = False
        self._active = False
        self._suspended = False
        self._evicted = False

    # -- submission ----------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Enqueue one task for in-order execution."""
        self._enqueue(task, 1)

    def submit_many(self, tasks: List[Task]) -> None:
        """Enqueue a run of tasks as one back-to-back chunk.

        The whole run costs a single ready-queue handoff; the lane
        executes the items consecutively in list order.
        """
        chunk = list(tasks)
        if chunk:
            self._enqueue(chunk, len(chunk))

    def _enqueue(self, element: Any, count: int) -> None:
        lane = self._lane
        with lane.lock:
            if self._evicted or lane.stopping:
                # Departed connection / closing pool: the work has no
                # observer left (mirrors requests queued behind the old
                # executor's stop sentinel, which never ran either).
                return
            self._tasks.append(element)
            lane.depth += count
            if _metrics.enabled:
                _SUBMITTED.value += count
                _DEPTH_HIST.observe(lane.depth)
            if not self._scheduled and not self._suspended:
                self._scheduled = True
                lane.ready.append(self)
            lane.ensure_thread()
            lane.cond.notify_all()

    def run_inline(self, element: Any) -> bool:
        """Run *element* on the calling thread if this client is idle.

        Idle means nothing queued, running or suspended.  The element
        then runs under a lane thread's bookkeeping: the client counts
        as scheduled and active, so a concurrent :meth:`submit` queues
        behind it, and a runner that suspends the client and returns
        :data:`STOP` holds back later tasks exactly as on a lane.
        Returns False, having run nothing, when the client is busy; the
        caller submits the element instead.
        """
        lane = self._lane
        with lane.lock:
            if (self._scheduled or self._suspended or self._tasks
                    or self._evicted or lane.stopping):
                return False
            self._scheduled = True
            self._active = True
        if _metrics.enabled:
            _INLINE.value += len(element) if isinstance(element, list) \
                else 1
        lane.run_element(self, element)
        with lane.lock:
            self._active = False
            if self._tasks and not self._evicted \
                    and not self._suspended:
                # Submitted while we ran: the lane takes over from here.
                lane.ready.append(self)
                lane.ensure_thread()
            else:
                self._scheduled = False
            lane.cond.notify_all()  # wake drain()ers
        return True

    # -- liveness cooperation ------------------------------------------------

    def suspend(self) -> None:
        """Park this client: no further tasks run until :meth:`resume`.

        Called by the runner *from the client's own element* just before
        it returns :data:`STOP` — the runner moved the in-flight op to a
        dedicated thread and later tasks of this connection must wait
        behind it.
        """
        with self._lane.lock:
            self._suspended = True
            if _metrics.enabled:
                _OFFLOADS.value += 1

    def requeue_front(self, tasks: List[Task]) -> None:
        """Push *tasks* back at the head of the queue, preserving order.

        Used with :meth:`suspend` when an element stops mid-chunk: the
        unexecuted remainder must run first once the client resumes.
        """
        if not tasks:
            return
        lane = self._lane
        with lane.lock:
            if self._evicted:
                return
            self._tasks.appendleft(list(tasks))
            lane.depth += len(tasks)

    def resume(self) -> None:
        """Lift a :meth:`suspend`; queued tasks become runnable again."""
        lane = self._lane
        with lane.lock:
            self._suspended = False
            if self._tasks and not self._scheduled and not self._evicted:
                self._scheduled = True
                lane.ready.append(self)
                # The suspending element may have run inline, before
                # this lane ever started its thread.
                lane.ensure_thread()
            # Unconditional: drain()ers wait for suspension to lift even
            # when nothing is queued (the offloaded op just finished).
            lane.cond.notify_all()

    # -- teardown ------------------------------------------------------------

    def pending(self) -> int:
        """Queued (not yet executed) task count, for tests/diagnostics."""
        with self._lane.lock:
            return sum(
                len(e) if isinstance(e, list) else 1 for e in self._tasks
            )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued task has executed; True on success.

        Deadlock-safe from anywhere: called on this client's own lane
        thread (a surrogate closing itself after a send failure) it
        executes the queued tasks *inline* instead of waiting for the
        worker it is standing on.
        """
        lane = self._lane
        deadline = None if timeout is None else time.monotonic() + timeout
        if threading.current_thread() is lane.thread:
            return self._drain_inline(deadline)
        with lane.lock:
            # Suspension counts as in-flight work: an offloaded blocking
            # op is still this connection's op, and BYE must not detach
            # the session out from under it.
            while self._tasks or self._active or self._suspended:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                lane.cond.wait(remaining)
            return True

    def _drain_inline(self, deadline: Optional[float]) -> bool:
        """Lane-thread drain: run our own queue in place.

        Only the lane thread ever executes this client, and that thread
        is *us* — so popping and running the tasks here cannot race
        another executor, and waiting would self-deadlock.
        """
        lane = self._lane
        while True:
            with lane.lock:
                if self._suspended:
                    # An op of ours is in flight on an offload worker;
                    # wait for its resume() before running later tasks.
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    lane.cond.wait(remaining)
                    continue
                if not self._tasks:
                    return True
                element = self._tasks.popleft()
                lane.depth -= len(element) if isinstance(element, list) \
                    else 1
            lane.run_element(self, element)

    def evict(self) -> None:
        """Forget this client: departed connections must not keep queue
        state alive until the server closes.  Queued tasks are dropped
        (the session they belong to is gone)."""
        lane = self._lane
        with lane.lock:
            if self._evicted:
                return
            self._evicted = True
            dropped = sum(
                len(e) if isinstance(e, list) else 1 for e in self._tasks
            )
            self._tasks.clear()
            lane.depth -= dropped
            if _metrics.enabled:
                _EVICTIONS.value += 1
            lane.cond.notify_all()

    def __repr__(self) -> str:
        return (f"<LaneClient {self.name} lane={self._lane.index} "
                f"pending={self.pending()}>")


class _Lane:
    """One worker thread plus the ready-queue of its assigned clients."""

    __slots__ = ("index", "name", "lock", "cond", "ready", "thread",
                 "stopping", "busy", "depth")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = f"{name}-{index}"
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.ready: Deque[LaneClient] = deque()
        self.thread: Optional[threading.Thread] = None
        self.stopping = False
        self.busy = False
        #: Tasks queued (not yet popped for execution) across clients.
        self.depth = 0

    def ensure_thread(self) -> None:
        """Start the worker lazily (caller holds the lock): an idle pool
        of 32 lanes costs zero threads."""
        if self.thread is None and not self.stopping:
            self.thread = threading.Thread(
                target=self._run, name=self.name, daemon=True)
            self.thread.start()

    def run_element(self, client: LaneClient, element: Any) -> bool:
        """Execute one popped element on the calling thread.

        Returns True if the runner stopped the element early (it
        suspended the client); the unexecuted remainder has been pushed
        back in order.  Exceptions from the runner are contained: a
        shared lane must survive any single client's failure.
        """
        runner = client._runner
        prior = getattr(_tls, "client", None)
        _tls.client = client
        try:
            if isinstance(element, list):
                for position, task in enumerate(element):
                    if self._run_task(runner, task, client) is STOP:
                        client.requeue_front(element[position + 1:])
                        return True
                return False
            return self._run_task(runner, element, client) is STOP
        finally:
            _tls.client = prior

    @staticmethod
    def _run_task(runner: Runner, task: Task, client: LaneClient) -> Any:
        if _metrics.enabled:
            _EXECUTED.value += 1
        try:
            return runner(task)
        except Exception:  # noqa: BLE001 - a lane outlives its clients
            _log.exception("lane task for %s raised", client.name)
            return None

    def _run(self) -> None:
        while True:
            with self.lock:
                while not self.ready and not self.stopping:
                    self.cond.wait()  # parked: zero idle wakeups
                if not self.ready:
                    return  # stopping, and every ready client drained
                client = self.ready.popleft()
                if client._evicted or client._suspended \
                        or not client._tasks:
                    client._scheduled = False
                    continue
                element = client._tasks.popleft()
                self.depth -= len(element) if isinstance(element, list) \
                    else 1
                client._active = True
                self.busy = True
            self.run_element(client, element)
            with self.lock:
                client._active = False
                self.busy = False
                if client._tasks and not client._evicted \
                        and not client._suspended:
                    # Round-robin fairness: back of the line, so a
                    # chatty client cannot starve its lane-mates.
                    self.ready.append(client)
                else:
                    client._scheduled = False
                self.cond.notify_all()  # wake drain()ers


class LanePool:
    """A fixed set of lanes shared by every surrogate of a server.

    Parameters
    ----------
    lanes:
        Worker count; ``None`` means :func:`default_lane_count`.
    name:
        Thread-name prefix (shows up in thread-hygiene accounting).
    """

    def __init__(self, lanes: Optional[int] = None,
                 name: str = "dstampede-lane") -> None:
        count = default_lane_count() if lanes is None else int(lanes)
        if count < 1:
            raise ValueError("lane count must be >= 1")
        self._lanes = [_Lane(index, name) for index in range(count)]
        self._next = 0
        self._bind_lock = threading.Lock()
        self._closed = False

    @property
    def lane_count(self) -> int:
        """The configured number of lanes."""
        return len(self._lanes)

    def client(self, runner: Runner, name: str = "") -> LaneClient:
        """Bind a new client, affinity-mapped round-robin to a lane.

        Round-robin at bind time spreads connections evenly without any
        per-task routing cost; a client stays on its lane for life, so
        its tasks are totally ordered by that lane's single thread.
        """
        with self._bind_lock:
            lane = self._lanes[self._next % len(self._lanes)]
            self._next += 1
        return LaneClient(lane, runner, name)

    # -- introspection -------------------------------------------------------

    def queued_tasks(self) -> int:
        """Tasks waiting across all lanes (the lane-depth gauge)."""
        return sum(lane.depth for lane in self._lanes)

    def busy_lanes(self) -> int:
        """Lanes currently executing a task (the occupancy gauge)."""
        return sum(1 for lane in self._lanes if lane.busy)

    def started_threads(self) -> int:
        """Lane threads actually running (lazy start means <= lanes)."""
        return sum(
            1 for lane in self._lanes
            if lane.thread is not None and lane.thread.is_alive()
        )

    def register_gauges(self) -> None:
        """Expose this pool through the global registry (the server
        calls this for its shared pool; private per-surrogate pools stay
        unregistered so they don't fight over the gauge names)."""
        _metrics.gauge("runtime.lanes.count",
                       fn=lambda: self.lane_count)
        _metrics.gauge("runtime.lanes.depth", fn=self.queued_tasks)
        _metrics.gauge("runtime.lanes.busy", fn=self.busy_lanes)

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 2.0) -> bool:
        """Stop every lane and join them under ONE shared deadline.

        Each lane finishes the elements already on its ready queue and
        exits; the joins race a single absolute deadline, so closing a
        server with 1000 formerly-connected devices costs at most
        *timeout* seconds total — not 2 s × workers like the old
        per-executor join loop.  Returns False if any lane thread was
        still alive at the deadline (it is daemonic and will not block
        interpreter exit).
        """
        self._closed = True
        for lane in self._lanes:
            with lane.lock:
                lane.stopping = True
                lane.cond.notify_all()
        deadline = time.monotonic() + timeout
        current = threading.current_thread()
        joined = True
        for lane in self._lanes:
            thread = lane.thread
            if thread is None or thread is current:
                continue  # never started, or closing from a lane thread
            thread.join(max(0.0, deadline - time.monotonic()))
            joined = joined and not thread.is_alive()
        return joined

    def __repr__(self) -> str:
        return (f"<LanePool lanes={self.lane_count} "
                f"threads={self.started_threads()} "
                f"queued={self.queued_tasks()}>")

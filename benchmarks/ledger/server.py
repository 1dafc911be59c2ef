"""The server under test, in a process of its own, seen through ``/proc``.

``python -m benchmarks.ledger.server SHARDS CPUS`` is the child: it pins
itself to CPUS, starts ``Runtime`` + ``StampedeServer`` (so the whole
process tree inherits the pinning), prints its address as one JSON line and
serves until its standard input closes.  A fresh interpreter (not a
``multiprocessing`` child) gives the server its own resource tracker, as a
deployed server has.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger import ROOT
from benchmarks.ledger.spec import GC_INTERVAL, LANES

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


class ServerProcess:
    """Handle on one spawned server; ``close()`` stops and reaps it."""

    def __init__(self, shards: int, metrics: bool, cpus: List[int]) -> None:
        # DSTAMPEDE_* variables of the caller pass through untouched: that
        # is how two data planes are paired on one workload.
        env = dict(os.environ)
        if metrics:
            env["DSTAMPEDE_METRICS"] = "1"
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.server", str(shards),
             ",".join(map(str, cpus))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=str(ROOT))
        line = self._proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before it was ready")
        host, port = json.loads(line)
        self.address: Tuple[str, int] = (host, port)
        self.pid = self._proc.pid
        self._descendants: List[int] = []

    def close(self) -> None:
        """Stop the server and reap it; ``wait_tree_gone`` does the rest."""
        if self._proc.poll() is None:
            self._descendants = self.tree()
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()

    def wait_tree_gone(self) -> None:
        """Wait until every process the closed server had started is gone.

        Shard workers and ``multiprocessing`` resource trackers are
        grandchildren: they end on their own, the trackers about two
        seconds after the server, so a run waits for all of them once, at
        its end, instead of after every set-up.
        """
        deadline = time.monotonic() + 10.0
        while any([_alive(pid) for pid in self._descendants]):
            if time.monotonic() > deadline:
                for pid in self._descendants:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline += 10.0
            time.sleep(0.01)

    def tree(self) -> List[int]:
        """Pids of the server and every live descendant."""
        return process_tree(self.pid)


def _alive(pid: int) -> bool:
    """False once *pid* has left ``/proc``; reaps it if it was orphaned
    to this process (``adopt_orphans``), else its new parent will."""
    fields = _stat_fields(pid)
    if fields is None:
        return False
    if fields[0] == "Z":
        try:
            return os.waitpid(pid, os.WNOHANG)[0] == 0
        except ChildProcessError:
            pass  # somebody else's to reap
    return True


def adopt_orphans() -> bool:
    """Make this process the parent of whatever its descendants orphan.

    Resource trackers of the server and of the probes' echo child are
    grandchildren that outlive their parents by a moment; as a child
    subreaper (``prctl``, Linux) this process inherits them, so that
    ``reap_children`` can wait for them too.  False where that is refused.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
        return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children(grace: float = 5.0) -> List[int]:
    """Wait until this process has no child left; the last thing a run does.

    Ends this process's own resource tracker first (the SHM probe starts
    one; it would otherwise end only after this process has).  Whatever is
    still alive *grace* seconds later is killed, tree and all, and
    returned.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass  # none was running
    killed: List[int] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in process_tree(os.getpid())[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
            deadline += grace
        time.sleep(0.01)


def process_tree(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` from the state field on (index 0 = state)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            raw = handle.read()
    except OSError:
        return None  # the process ended between listing and reading
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds consumed so far by *pids*."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICK


def _status_sum(pids: List[int], keys: Tuple[str, ...],
                per_thread: bool = False) -> Dict[str, int]:
    totals = dict.fromkeys(keys, 0)
    for pid in pids:
        paths = [f"/proc/{pid}/status"]
        if per_thread:
            try:
                paths = [f"/proc/{pid}/task/{tid}/status"
                         for tid in os.listdir(f"/proc/{pid}/task")]
            except OSError:
                continue
        for path in paths:
            try:
                with open(path, encoding="ascii",
                          errors="replace") as handle:
                    for line in handle:
                        key, _, value = line.partition(":")
                        if key in totals:
                            totals[key] += int(value.split()[0])
            except OSError:
                continue
    return totals


def rss_peak_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of *pids*, in MB."""
    return _status_sum(pids, ("VmHWM",))["VmHWM"] / 1024.0


def context_switches(pids: List[int]) -> int:
    """Voluntary + involuntary switches of every thread of *pids*."""
    keys = ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
    return sum(_status_sum(pids, keys, per_thread=True).values())


def thread_count(pids: List[int]) -> int:
    return _status_sum(pids, ("Threads",))["Threads"]


def _serve(shards: int, cpus: List[int]) -> None:
    # Before any thread or shard worker exists, so that all inherit it.
    os.sched_setaffinity(0, cpus)
    from repro import Runtime, StampedeServer

    runtime = Runtime(gc_interval=GC_INTERVAL)
    server = StampedeServer(runtime, lanes=LANES, shards=shards).start()
    try:
        print(json.dumps(list(server.address)), flush=True)
        sys.stdin.read()  # the parent closing our stdin is the stop signal
    finally:
        server.close()
        runtime.shutdown()


if __name__ == "__main__":
    _serve(int(sys.argv[1]), [int(cpu) for cpu in sys.argv[2].split(",")])

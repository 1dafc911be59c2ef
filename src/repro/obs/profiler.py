"""Sampling continuous profiler: where is each process spending time?

A timer-driven daemon thread wakes every ``interval`` seconds, walks
``sys._current_frames()`` for every live thread (lanes, reactor, shard
workers — whatever exists in this process) and folds each
stack into a **collapsed-stack** counter::

    thread-name;outer_fn (mod.py);...;leaf_fn (mod.py)  -> samples

Frames are aggregated at function granularity (no line numbers) so
counts merge cleanly across processes; ``tools/flame.py`` renders the
merged counters as flamegraph text.  Sampling cost is paid *by the
profiler thread*, not by the code being profiled — the instrumented hot
paths carry zero added instructions, which is what keeps the profiler
inside the paired <5% overhead gate.

Off by default; enable with ``DSTAMPEDE_PROFILE=1`` (optionally
``DSTAMPEDE_PROFILE_INTERVAL`` seconds) or :func:`start_profiler`.
Snapshots travel over the wire via the ``PROF_DUMP`` op and are merged
across shard workers by :func:`repro.obs.aggregate.merge_profile_dumps`.

Like the rest of :mod:`repro.obs`, this module imports nothing from
``repro.core``/``repro.runtime``.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Dict, Optional

__all__ = [
    "StackProfiler",
    "GLOBAL_PROFILER",
    "start_profiler",
    "stop_profiler",
]

#: Deepest stack retained per sample; outer frames beyond it are dropped
#: (the leaf side is what a flamegraph localizes).
MAX_DEPTH = 64

_DEFAULT_INTERVAL = 0.01


class StackProfiler:
    """Collapsed-stack sampler over every thread of this process."""

    def __init__(self, interval: float = _DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._lock = threading.Lock()
        self._samples: Dict[str, int] = {}
        self._sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "StackProfiler":
        """Start the sampler daemon thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="dstampede-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(timeout=self.interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - profiler must not harm
                pass

    # -- sampling --------------------------------------------------------------

    def sample_once(self) -> None:
        """Take one sample of every thread (public for deterministic
        tests — no daemon thread required)."""
        me = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        stamps: Dict[str, int] = {}
        for tid, frame in sys._current_frames().items():
            if tid == me:
                continue  # never profile the profiler
            parts = []
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                code = frame.f_code
                parts.append(
                    f"{code.co_name} "
                    f"({os.path.basename(code.co_filename)})")
                frame = frame.f_back
                depth += 1
            if not parts:
                continue
            parts.reverse()
            key = ";".join([names.get(tid, f"thread-{tid}")] + parts)
            stamps[key] = stamps.get(key, 0) + 1
        if stamps:
            with self._lock:
                for key, n in stamps.items():
                    self._samples[key] = self._samples.get(key, 0) + n
                    self._sample_count += n

    # -- export ----------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        with self._lock:
            return self._sample_count

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()
            self._sample_count = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view: the PROF_DUMP wire payload body."""
        with self._lock:
            samples = dict(self._samples)
            count = self._sample_count
        return {
            "interval": self.interval,
            "running": self.running,
            "sample_count": count,
            "samples": samples,
        }

    def collapsed(self) -> str:
        """Classic ``stack count`` collapsed-stack text (one line per
        distinct stack) — feedable to any flamegraph tooling."""
        with self._lock:
            items = sorted(self._samples.items())
        return "\n".join(f"{stack} {count}" for stack, count in items)


#: The process-global profiler PROF_DUMP serves.
GLOBAL_PROFILER = StackProfiler(
    interval=float(os.environ.get("DSTAMPEDE_PROFILE_INTERVAL", "")
                   or _DEFAULT_INTERVAL))


def start_profiler(interval: Optional[float] = None) -> StackProfiler:
    """Start the process-global profiler (optionally retuning its
    interval first) and return it."""
    if interval is not None and interval != GLOBAL_PROFILER.interval:
        GLOBAL_PROFILER.stop()
        GLOBAL_PROFILER.interval = interval
    return GLOBAL_PROFILER.start()


def stop_profiler() -> None:
    GLOBAL_PROFILER.stop()


if os.environ.get("DSTAMPEDE_PROFILE", "") not in ("", "0"):
    GLOBAL_PROFILER.start()


# The sampler thread does not survive fork; a forked shard worker also
# inherits the lock in whatever state the parent's sampler left it.
# Fresh lock, fresh counters, and restart the thread if it was running.
if hasattr(os, "register_at_fork"):  # pragma: no branch - always on Linux
    def _restart_after_fork() -> None:
        was_running = GLOBAL_PROFILER._thread is not None
        GLOBAL_PROFILER._lock = threading.Lock()
        GLOBAL_PROFILER._samples = {}
        GLOBAL_PROFILER._sample_count = 0
        GLOBAL_PROFILER._thread = None
        GLOBAL_PROFILER._stop = threading.Event()
        if was_running:
            GLOBAL_PROFILER.start()

    os.register_at_fork(after_in_child=_restart_after_fork)

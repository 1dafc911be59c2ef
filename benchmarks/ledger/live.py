"""The live run: one server process, two device connections, five phases.

Only the stable public surface is used (``StampedeClient`` and its
``put/get/consume``, ``shard_map``, ``gc_report``, ``stats``, ``ping``,
plus ``local_name`` for placement), so this file survives the client and
telemetry rewrites the roadmap plans.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import OLDEST, ConnectionMode, StampedeClient, StampedeError
from repro.runtime.shards import local_name

from benchmarks.ledger import server as srv
from benchmarks.ledger.payload import PayloadFactory, Verifier
from benchmarks.ledger.spec import (BLOCKS, GC_DEADLINE_S, GET_TIMEOUT_S,
                                    PHASE_SHARE, SETUPS, WARMUP_S, Workload)

now = time.perf_counter

_SPIN_ITERATIONS = 100_000
#: CPU seconds the calibration loop takes at the reference speed (23.3 ns
#: an iteration: CPython 3.11 on the build sandbox's CPU when uncontended).
_SPIN_REFERENCE_S = _SPIN_ITERATIONS * 23.3e-9


def host_slowdown() -> float:
    """How much slower than the reference speed this CPU runs right now.

    The sandbox's CPUs toggle every few seconds between two speeds 27 %
    apart (a neighbour on the sibling hyperthread), with dwell times as long
    as a phase, so no statistic over one run's blocks removes it.  A fixed
    interpreter loop, timed in this thread's CPU time so that sharing the CPU
    with the server does not count, measures which speed it is; the
    closed-loop phases, which are CPU-bound by construction, divide their
    times by it block by block (the open-loop phase: see ``Stream.paced``).
    """
    start = time.thread_time()
    total = 0
    for value in range(_SPIN_ITERATIONS):
        total += value
    return (time.thread_time() - start) / _SPIN_REFERENCE_S


class _Edge(NamedTuple):
    """What the saturation phase reads at a block edge."""

    at: float
    server_cpu: float
    client_cpu: float
    slowdown: float


class Spans:
    """Generator-side spans of the traced run, kept in memory.

    One root ``item`` span per timestamp (due time to ``get`` return) with
    children ``client.put`` / ``client.get`` / ``client.consume`` sharing
    the timestamp as identifier.  The producer and the consumer thread
    each append to their own lists.
    """

    def __init__(self) -> None:
        self.items: List[Tuple[str, int, float, float]] = []
        self.calls: Dict[str, List[Tuple[str, int, float, float]]] = {
            "client.put": [], "client.get": [], "client.consume": []}

    def median_us(self, name: str, phase: str) -> Optional[float]:
        values = [end - start for tag, _, start, end in self.calls[name]
                  if tag == phase]
        return statistics.median(values) * 1e6 if values else None

    def self_time_us(self, phase: str) -> Optional[float]:
        """Median over items of the root span minus its two blocking
        children (put, get): time spent in neither call."""
        spent: Dict[int, float] = {}
        for name in ("client.put", "client.get"):
            for tag, ts, start, end in self.calls[name]:
                if tag == phase:
                    spent[ts] = spent.get(ts, 0.0) + end - start
        values = [end - start - spent[ts]
                  for tag, ts, start, end in self.items
                  if tag == phase and ts in spent]
        return statistics.median(values) * 1e6 if values else None

    def write(self, path, every: int) -> int:
        """Write every *every*-th timestamp's spans as JSON lines."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for name, spans in (("item", self.items), *self.calls.items()):
                for phase, ts, start, end in spans:
                    if ts % every:
                        continue
                    handle.write(json.dumps({
                        "name": name, "id": ts, "phase": phase,
                        "parent": None if name == "item" else "item",
                        "start": start, "end": end}) + "\n")
                    count += 1
        return count


class Session:
    """Set-up, the phases, and tear-down against one fresh server.

    *tamper*, for the smoke test only, maps each delivery ``(ts, item)`` to
    the list of deliveries the verifier gets to see instead.
    """

    def __init__(self, workload: Workload, seed: int, traced: bool,
                 server_cpus: List[int],
                 tamper: Optional[Callable] = None) -> None:
        started = now()
        self.workload = workload
        self.spans = Spans() if traced else None
        self.tamper = tamper
        self.pings = 0
        self.streams: List["Stream"] = []
        self.server = srv.ServerProcess(workload.shards, metrics=traced,
                                        cpus=server_cpus)
        self.producer = self.consumer = None
        try:
            self._connect()
            self.main = Stream(self, "ledger", seed,
                               remote=workload.anti_affine)
            self.main.exchange_once("setup")
        except BaseException:
            self.close()
            raise
        self.setup_s = now() - started

    def _connect(self) -> None:
        address = self.server.address
        self.producer = StampedeClient(*address, client_name="producer",
                                       codec="xdr")
        self.shard_map = self.producer.shard_map()
        # Both devices must sit on one shard, so that "the other shard
        # owns the container" holds for every operation of the run.
        while True:
            self.consumer = StampedeClient(*address, client_name="consumer",
                                           codec="xdr")
            if self.consumer.shard_map()["shard_id"] \
                    == self.shard_map["shard_id"]:
                return
            self.consumer.close()

    def close(self) -> None:
        for client in (self.producer, self.consumer):
            if client is not None:
                try:
                    client.close()
                except StampedeError:
                    pass  # the link may already be down; reap the server
        self.server.close()

    def drop_reclaim_notices(self) -> None:
        """Keep the clients' reclaim queues from growing with the run."""
        self.producer.take_reclaims()
        self.consumer.take_reclaims()

    def ping_rtt_us(self, count: int = 300) -> float:
        values = []
        for _ in range(count):
            start = now()
            self.producer.ping()
            values.append(now() - start)
        self.pings += count
        return statistics.median(values) * 1e6

    def finish(self) -> Dict[str, object]:
        """Drain and verify: deliveries, then the GC promise.

        Every item of every stream was delivered exactly once, in order
        and intact, and the collector reclaims them all within
        ``GC_DEADLINE_S`` of the last consume.
        """
        last_consume = now()
        violations: List[str] = []
        attempted, failed = self.pings, 0
        for stream in self.streams:
            violations += stream.verifier.finish(stream.put)
            attempted += stream.put + 2 * stream.takes
            failed += stream.failed_puts + stream.failed_takes \
                + stream.verifier.bad
        put = sum(stream.put for stream in self.streams)
        lag = float("nan")
        while True:
            # Asked on the consumer's link: the call is the barrier that
            # flushes its last coalesced consume casts.
            _sweeps, reclaimed, _bytes = self.consumer.gc_report()
            waited = now() - last_consume
            if reclaimed >= put:
                lag = waited
                break
            if waited > GC_DEADLINE_S:
                failed += 1
                violations.append(
                    f"GC reclaimed {reclaimed} of {put} consumed items "
                    f"within {GC_DEADLINE_S} s")
                break
            time.sleep(0.01)
        return {"violations": violations, "gc_reclaim_lag_s": lag,
                "items": put, "attempted": attempted, "failed": failed}


class Stream:
    """One container with the producer attached OUT and the consumer IN."""

    def __init__(self, session: Session, base: str, seed: int,
                 remote: bool) -> None:
        self.s = session
        workload = session.workload
        shard = session.shard_map["shard_id"]
        shards = session.shard_map["shards"]
        owner = (shard + 1) % shards if remote else shard
        self.name = local_name(base, owner, shards)
        self.is_queue = workload.kind == "queue"
        if self.is_queue:
            session.producer.create_queue(self.name)
        else:
            session.producer.create_channel(self.name)
        self.out = session.producer.attach(self.name, ConnectionMode.OUT)
        self.inp = session.consumer.attach(self.name, ConnectionMode.IN)
        self.factory = PayloadFactory(seed, workload.size)
        self.verifier = Verifier(workload.size)
        # Counters have one writer each (the putting thread, the taking
        # thread), so no lock: ``put`` is also the next timestamp.
        self.put = 0
        self.failed_puts = 0
        self.takes = 0
        self.failed_takes = 0
        session.streams.append(self)

    # -- single operations ------------------------------------------------

    def _put(self, phase: str, due: float, sync: bool) -> None:
        timestamp = self.put
        self.put += 1
        item = self.factory.make(timestamp, due)
        start = now()
        try:
            self.out.put(timestamp, item, sync=sync)
        except StampedeError:
            self.failed_puts += 1
        if self.s.spans is not None:
            self.s.spans.calls["client.put"].append(
                (phase, timestamp, start, now()))

    def _take(self, phase: str, timestamp: int) -> Optional[float]:
        """Get, check and consume the next item.

        Returns the time from the item's due instant to the return of the
        ``get``, or None when the item was missing or bad.
        """
        spans = self.s.spans
        self.takes += 1
        start = now()
        try:
            got_ts, value = self.inp.get(
                OLDEST if self.is_queue else timestamp,
                timeout=GET_TIMEOUT_S)
        except StampedeError:
            self.failed_takes += 2  # the get, and the consume it precludes
            return None
        returned = now()
        try:
            self.inp.consume(got_ts, sync=False)
        except StampedeError:
            self.failed_takes += 1
        if spans is not None:
            spans.calls["client.get"].append(
                (phase, got_ts, start, returned))
            spans.calls["client.consume"].append(
                (phase, got_ts, returned, now()))
        deliveries = [(got_ts, value)] if self.s.tamper is None \
            else self.s.tamper(got_ts, value)
        latency = None
        for got_ts, value in deliveries:
            due = self.verifier.deliver(got_ts, value)
            if due is not None:
                latency = returned - due
                if spans is not None:
                    spans.items.append((phase, got_ts, due, returned))
        return latency

    def exchange_once(self, phase: str) -> Optional[float]:
        """Confirmed put, get of that item, cast consume (Figs. 11-13);
        returns the round-trip time."""
        timestamp = self.put
        self._put(phase, now(), sync=True)
        return self._take(phase, timestamp)

    # -- phases -----------------------------------------------------------

    def exchange(self, phase: str, seconds: float) -> Dict[str, object]:
        """Closed loop, one outstanding, in ``BLOCKS`` timed blocks."""
        rtts: List[float] = []
        normalised: List[float] = []
        slowdown = host_slowdown()
        for _ in range(BLOCKS):
            block = []
            deadline = now() + seconds / BLOCKS
            while now() < deadline:
                rtt = self.exchange_once(phase)
                if rtt is not None:
                    block.append(rtt)
            before, slowdown = slowdown, host_slowdown()
            if block:
                rtts += block
                normalised.append(statistics.median(block)
                                  / ((before + slowdown) / 2))
        return {"rtts": rtts, "p50_s": _median(normalised)}

    def paced(self, seconds: float, rng: random.Random) -> Dict[str, object]:
        """Open loop at the workload's rate with seeded +/-10% jitter;
        returns each block's median latency with the host's slowdown."""
        workload = self.s.workload
        offsets, offset = [], 0.0
        while offset < seconds:
            offsets.append(offset)
            offset += rng.uniform(0.9, 1.1) / workload.rate
        first = self.put
        late: List[float] = []
        progress = {"delivered": 0, "backlog_end": 0}
        slowdowns = [host_slowdown()]
        start = now() + 0.01

        def produce() -> None:
            for offset in offsets:
                due = start + offset
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                late.append(now() - due)
                self._put("paced", due, workload.sync_put)
            progress["backlog_end"] = len(offsets) - progress["delivered"]

        producer = threading.Thread(target=produce, name="ledger-producer")
        producer.start()
        blocks: List[List[float]] = [[]]
        for index, offset in enumerate(offsets):
            if offset >= len(blocks) * seconds / BLOCKS:
                slowdowns.append(host_slowdown())
                blocks.append([])
            latency = self._take("paced", first + index)
            progress["delivered"] += 1
            if latency is not None:
                blocks[-1].append(latency)
        producer.join()
        slowdowns.append(host_slowdown())
        return {
            "latencies": [value for block in blocks for value in block],
            "blocks": [(statistics.median(block),
                        (slowdowns[i] + slowdowns[i + 1]) / 2)
                       for i, block in enumerate(blocks) if block],
            "late": late, "backlog_end": progress["backlog_end"]}

    def saturation(self, seconds: float) -> Dict[str, object]:
        """Closed loop, at most ``window`` items put but not yet consumed.

        The consumer closes a block every ``seconds / BLOCKS``: items
        delivered, CPU seconds of the server tree and of this process, and
        the host's slowdown at both edges.
        """
        workload = self.s.workload
        window = threading.Semaphore(workload.window)
        ready = threading.Semaphore(0)
        done = threading.Event()
        traced = self.s.spans is not None
        tree = self.s.server.tree()
        switches = srv.context_switches(tree) if traced else 0
        timestamp = self.put  # before the producer thread moves it
        start = now()
        deadline = start + seconds

        def produce() -> None:
            while now() < deadline:
                if window.acquire(timeout=0.05):
                    self._put("saturation", now(), workload.sync_put)
                    ready.release()
            done.set()
            ready.release()  # one permit beyond the items: the end marker

        def edge() -> _Edge:
            return _Edge(now(), srv.cpu_seconds(tree), time.process_time(),
                         host_slowdown())

        producer = threading.Thread(target=produce, name="ledger-producer")
        producer.start()
        rates: List[float] = []
        server_cpu: List[float] = []
        client_cpu: List[float] = []
        delivered = in_block = 0
        opened = edge()
        next_edge = start + seconds / BLOCKS
        while True:
            ready.acquire()
            if done.is_set() and timestamp == self.put:
                break
            if self._take("saturation", timestamp) is not None:
                in_block += 1
            timestamp += 1
            window.release()
            if now() >= next_edge and in_block:
                closed = edge()
                slowdown = (opened.slowdown + closed.slowdown) / 2
                rates.append(
                    in_block / (closed.at - opened.at) * slowdown)
                server_cpu.append((closed.server_cpu - opened.server_cpu)
                                  * 1e6 / in_block / slowdown)
                client_cpu.append((closed.client_cpu - opened.client_cpu)
                                  * 1e6 / in_block / slowdown)
                delivered += in_block
                in_block = 0
                opened = closed
                next_edge += seconds / BLOCKS
        producer.join()
        delivered += in_block
        return {
            "delivered": delivered, "elapsed_s": now() - start,
            "per_s": _median(rates),
            "server_cpu_ms_per_kitem": _median(server_cpu),
            "client_cpu_ms_per_kitem": _median(client_cpu),
            "ctx_switches": (srv.context_switches(tree) - switches)
            if traced else 0,
            "threads": srv.thread_count(tree),
        }


# -- statistics ---------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def info_latency_s(paced: Dict[str, object],
                   saturation: Dict[str, object]) -> float:
    """Median information latency of the paced phase at reference speed.

    That latency is timers (the coalescer's linger) plus CPU work, and only
    the CPU work stretches when the host slows down, so dividing by the
    slowdown would be wrong.  Instead each block's median sheds the extra
    CPU time the slower host spent on one item: the CPU cost of an item at
    reference speed, as the saturation phase measured it, times
    ``slowdown - 1``.
    """
    per_item = (saturation["server_cpu_ms_per_kitem"]
                + saturation["client_cpu_ms_per_kitem"]) * 1e-6
    return _median([latency - per_item * (slowdown - 1)
                    for latency, slowdown in paced["blocks"]])


def tail(values: List[float]) -> Dict[str, float]:
    """The highest percentile (up to p99) with >= 10 samples beyond it."""
    count = len(values)
    if not count:
        return {"percentile": float("nan"), "value": float("nan"),
                "samples": 0}
    # Too few samples for any tail (a --quick run): fall back to the median.
    percentile = min(0.99, 1.0 - 10.0 / count) if count >= 20 else 0.5
    ordered = sorted(values)
    return {"percentile": percentile * 100.0,
            "value": ordered[min(count - 1, int(percentile * count))],
            "samples": count}


def tail_us(values: List[float]) -> Dict[str, float]:
    entry = tail(values)
    return {**entry, "value": entry["value"] * 1e6}


# -- the run ------------------------------------------------------------------


def phase_seconds(seconds: float, traced: bool) -> Dict[str, float]:
    scale = 0.5 if traced else 1.0
    return {name: seconds * share * scale
            for name, share in PHASE_SHARE.items()}


def run_phases(session: Session, seconds: Dict[str, float], seed: int,
               warmup: float) -> Dict[str, Dict[str, object]]:
    """Warm-up, exchange, paced, saturation on the session's main stream."""
    stream = session.main
    stream.exchange("warmup", warmup)
    session.drop_reclaim_notices()
    out = {"exchange": stream.exchange("exchange", seconds["exchange"])}
    session.drop_reclaim_notices()
    out["paced"] = stream.paced(seconds["paced"],
                                random.Random(seed ^ 0x5EED))
    session.drop_reclaim_notices()
    out["saturation"] = stream.saturation(seconds["saturation"])
    session.drop_reclaim_notices()
    return out


def untraced_run(workload: Workload, seed: int, seconds: float,
                 server_cpus: List[int],
                 warmup: float = WARMUP_S, setups: int = SETUPS,
                 tamper: Optional[Callable] = None) -> Dict[str, object]:
    """The run that yields every end-to-end metric."""
    setup_times = []
    closed = []
    for _ in range(setups - 1):
        session = Session(workload, seed, False, server_cpus)
        setup_times.append(session.setup_s / host_slowdown())
        session.close()
        closed.append(session)
    session = Session(workload, seed, False, server_cpus, tamper=tamper)
    setup_times.append(session.setup_s / host_slowdown())
    try:
        phases = run_phases(session, phase_seconds(seconds, traced=False),
                            seed, warmup)
        verdict = session.finish()
        rss = srv.rss_peak_mb(session.server.tree())
    finally:
        session.close()
        for done in closed + [session]:
            done.server.wait_tree_gone()

    exchange, paced, sat = (phases[k] for k in
                            ("exchange", "paced", "saturation"))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "delivered_per_s": sat["per_s"],
        "exchange_rtt_p50_us": exchange["p50_s"] * 1e6,
        "info_latency_p50_us": info_latency_s(paced, sat) * 1e6,
        "server_cpu_ms_per_kitem": sat["server_cpu_ms_per_kitem"],
        "client_cpu_ms_per_kitem": sat["client_cpu_ms_per_kitem"],
        "server_rss_peak_mb": rss,
    }
    return {
        "metrics": metrics,
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "violations": verdict["violations"],
        "detail": {
            "shards": session.shard_map["shards"],
            "setup_times_s": setup_times,
            "items": verdict["items"],
            "gc_reclaim_lag_s": verdict["gc_reclaim_lag_s"],
            "exchange_rtt_raw_p50_us": _median(exchange["rtts"]) * 1e6,
            "exchange_tail_us": tail_us(exchange["rtts"]),
            "info_latency_raw_p50_us": _median(paced["latencies"]) * 1e6,
            "info_latency_tail_us": tail_us(paced["latencies"]),
            "gen_late_tail_us": tail_us(paced["late"]),
            "paced_backlog_end": paced["backlog_end"],
            "saturation_raw_per_s": sat["delivered"] / sat["elapsed_s"],
        },
    }

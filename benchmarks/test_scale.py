"""Scale benchmarks: O(lanes) execution threads for O(devices) connections.

The Octopus model (§4) grows by adding tentacles, not cluster cores: the
device count is the free variable.  The seed's backend materialised one
serial-executor thread per wire connection, so 1000 connected devices
meant ~1000 threads of stack and scheduler pressure behind the
single-threaded reactor.  This module measures the bounded lane pool
that replaced it, over real TCP sockets:

* **thread count + RSS at scale** — connect many raw devices to one
  server, attach each to a channel and stream puts through it, at
  ``lanes ∈ {1, 8, 32}``.  The server-side thread delta must be
  ``<= lanes + constant`` (reactor + jitter) regardless of the device
  count; the per-device RSS delta and the cast-put drain throughput are
  recorded per lane count (the scale curve of EXPERIMENTS.md).
* **serializer invocations on fan-out** — one producer, eight
  consumers, one item: the serialize-once cache must run the §3.2.4
  serializer at least 2x fewer times than the one-encode-per-consumer
  seed behaviour (it runs exactly once in practice).

Digests go to ``benchmarks/results/``; summaries to ``BENCH_scale.json``
at the repo root (same contract as ``BENCH_rpc.json``: >2x regression on
the gated keys fails, ``BENCH_UPDATE=1`` re-baselines, ``BENCH_QUICK=1``
runs a CI-sized variant that never writes the baseline).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from benchmarks.conftest import print_series, write_csv
from repro import Runtime, StampedeClient, StampedeServer
from repro.core import ConnectionMode
from repro.marshal import get_codec
from repro.obs.metrics import GLOBAL_METRICS
from repro.runtime import ops
from repro.transport.tcp import connect_tcp

BASELINE_PATH = Path(__file__).parent.parent / "BENCH_scale.json"

QUICK = bool(os.environ.get("BENCH_QUICK"))

#: The acceptance scenario is 1000 simulated connections; quick mode
#: keeps the same shape at CI size.
DEVICES = 100 if QUICK else 1000
CASTS_PER_DEVICE = 2 if QUICK else 3
LANE_COUNTS = [1, 8, 32]
PAYLOAD = b"x" * 256
FANOUT_CONSUMERS = 8
#: Threads the server may add beyond the lane count: the reactor, plus
#: slack for transient teardown/offload workers caught mid-exit.
THREAD_CONSTANT = 4
REGRESSION_FACTOR = 2.0


def _rss_kb() -> int:
    """Current RSS in kB (Linux ``/proc``; 0 where unavailable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _attach(device, request_id: int, channel: str) -> int:
    device.send_frame(ops.encode_request(request_id, ops.OP_ATTACH, {
        "container": channel, "mode": "out", "wait": False,
        "wait_timeout": 0.0, "filter": b"",
    }))
    response = ops.decode_response(
        device.recv_frame(timeout=10.0), ops.OP_ATTACH)
    assert response.ok, response.error_type
    return response.results["connection_id"]


def _put_frame(request_id: int, connection_id: int, timestamp: int,
               payload: bytes) -> bytes:
    return ops.encode_request(request_id, ops.OP_PUT, {
        "connection_id": connection_id, "timestamp": timestamp,
        "payload": payload, "block": True,
        "has_timeout": False, "timeout": 0.0,
    })


def _measure_lane_config(lanes: int) -> dict:
    """Thread delta, RSS delta and put drain rate at one lane count."""
    runtime = Runtime(gc_interval=60.0)
    runtime.create_address_space("N1")
    runtime.create_channel("scale", space="N1")
    threads_before = threading.active_count()
    rss_before = _rss_kb()
    server = StampedeServer(runtime, device_spaces=["N1"],
                            lanes=lanes).start()
    devices = []
    payload = get_codec("xdr").encode(PAYLOAD)
    try:
        for _ in range(DEVICES):
            devices.append(connect_tcp(server.address))
        conn_ids = [_attach(device, 1, "scale")
                    for device in devices]
        rss_connected = _rss_kb()

        start = time.perf_counter()
        timestamp = 0
        for device, conn_id in zip(devices, conn_ids):
            for _ in range(CASTS_PER_DEVICE):
                device.send_frame(_put_frame(
                    ops.CAST_REQUEST_ID, conn_id, timestamp, payload))
                timestamp += 1
        # Barrier: a synchronous put per connection executes on the same
        # lane sub-queue, hence strictly after that device's casts.
        for device, conn_id in zip(devices, conn_ids):
            device.send_frame(_put_frame(2, conn_id, timestamp, payload))
            timestamp += 1
        for device in devices:
            response = ops.decode_response(
                device.recv_frame(timeout=60.0), ops.OP_PUT)
            assert response.ok, response.error_type
        elapsed = time.perf_counter() - start

        threads_busy = threading.active_count()
        lane_threads = server.lane_pool.started_threads()
        rss_after = _rss_kb()
    finally:
        for device in devices:
            device.close()
        server.close()
        runtime.shutdown()

    total_puts = DEVICES * (CASTS_PER_DEVICE + 1)
    return {
        "lanes": lanes,
        "devices": DEVICES,
        "load_generator": "sync",
        "cpu_count": os.cpu_count(),
        "thread_delta": threads_busy - threads_before,
        "lane_threads": lane_threads,
        "puts_per_s": total_puts / elapsed,
        "rss_delta_kb": rss_after - rss_before,
        "rss_per_device_kb":
            (rss_connected - rss_before) / DEVICES,
    }


def test_bench_threads_and_throughput_vs_lanes(results_dir):
    """The scale curve: thread count must be O(lanes), never O(devices)."""
    rows = []
    summary = {}
    for lanes in LANE_COUNTS:
        result = _measure_lane_config(lanes)
        summary[str(lanes)] = result
        rows.append([
            lanes, result["devices"], result["thread_delta"],
            result["lane_threads"], round(result["puts_per_s"], 1),
            result["rss_delta_kb"],
            round(result["rss_per_device_kb"], 1),
        ])
        assert result["thread_delta"] <= lanes + THREAD_CONSTANT, (
            f"{result['thread_delta']} server threads for "
            f"{result['devices']} devices at lanes={lanes} — "
            f"not O(lanes)"
        )
        assert result["lane_threads"] <= lanes

    header = ["lanes", "devices", "thread_delta", "lane_threads",
              "puts_per_s", "rss_delta_kB", "rss_per_device_kB"]
    write_csv(results_dir / "scale_lanes.csv", header, rows)
    print_series(f"server scale at {DEVICES} connections", header, rows)
    _check_or_write_baseline("lanes", summary, gate_keys=())


def test_bench_fanout_serializer_invocations(results_dir):
    """Serialize-once: 8 wire consumers of one item must cost >= 2x
    fewer serializer invocations than one-encode-per-consumer (the cache
    makes it exactly one)."""
    GLOBAL_METRICS.enable()
    runtime = Runtime(gc_interval=60.0)
    server = StampedeServer(runtime).start()
    misses = GLOBAL_METRICS.counter("core.encode_cache.misses")
    hits = GLOBAL_METRICS.counter("core.encode_cache.hits")
    try:
        producer = StampedeClient(*server.address, client_name="producer")
        consumers = [
            StampedeClient(*server.address, client_name=f"viewer-{i}")
            for i in range(FANOUT_CONSUMERS)
        ]
        try:
            producer.create_channel("frames")
            out = producer.attach("frames", ConnectionMode.OUT)
            inputs = [client.attach("frames", ConnectionMode.IN)
                      for client in consumers]
            out.put(0, PAYLOAD)
            misses_before, hits_before = misses.value, hits.value
            for handle in inputs:
                assert handle.get(0, timeout=10.0)[1] == PAYLOAD
            invocations = misses.value - misses_before
            cache_hits = hits.value - hits_before
        finally:
            producer.close()
            for client in consumers:
                client.close()
    finally:
        server.close()
        runtime.shutdown()
        GLOBAL_METRICS.disable()

    seed_invocations = FANOUT_CONSUMERS  # one encode per consumer
    summary = {
        "consumers": FANOUT_CONSUMERS,
        "serializer_invocations": invocations,
        "seed_invocations": seed_invocations,
        "cache_hits": cache_hits,
        "invocation_reduction":
            seed_invocations / max(1, invocations),
    }
    header = ["consumers", "invocations", "seed_invocations",
              "cache_hits", "reduction"]
    rows = [[FANOUT_CONSUMERS, invocations, seed_invocations,
             cache_hits, round(summary["invocation_reduction"], 1)]]
    write_csv(results_dir / "scale_fanout.csv", header, rows)
    print_series("serializer invocations, 1 producer / 8 consumers",
                 header, rows)

    assert invocations * 2 <= seed_invocations, (
        f"{invocations} serializer invocations for "
        f"{FANOUT_CONSUMERS} consumers — cache is not delivering 2x"
    )
    _check_or_write_baseline("fanout", summary,
                             gate_keys=("serializer_invocations",))


def _check_or_write_baseline(section: str, summary: dict,
                             gate_keys) -> None:
    """Merge *section* into BENCH_scale.json, or gate against it."""
    if BASELINE_PATH.exists() and not os.environ.get("BENCH_UPDATE") \
            and section in json.loads(BASELINE_PATH.read_text()):
        if QUICK:
            return  # CI quick mode: the assertions above are the gate
        baseline = json.loads(BASELINE_PATH.read_text())[section]
        for key in gate_keys:
            assert summary[key] <= baseline[key] * REGRESSION_FACTOR, (
                f"{key}: {summary[key]:.3f} vs baseline "
                f"{baseline[key]:.3f} (>{REGRESSION_FACTOR}x)"
            )
        return
    if QUICK:
        return  # never baseline from a quick run
    data = {}
    if BASELINE_PATH.exists():
        data = json.loads(BASELINE_PATH.read_text())
    data[section] = summary
    BASELINE_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )

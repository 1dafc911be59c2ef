"""The traced run: every per-layer metric of one workload.

Half-length phases against a server started under ``DSTAMPEDE_METRICS=1``
with generator-side spans on, then an unmetered saturation twin (its
throughput over the traced one is the tracing overhead), then the layer
probes.  End-to-end metrics never come from here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from benchmarks.ledger import live, probes
from benchmarks.ledger.spec import WARMUP_S, Workload

#: Every N-th timestamp's spans are written out; all of them are kept in
#: memory for the medians.
SPAN_SAMPLE_EVERY = 16

#: How often one exchange (confirmed put, get, cast consume) crosses each
#: probed layer on its blocking path.  The consume is a cast and off that
#: path.  Payload-bearing frames only: put request and get response.
_CROSSINGS = {
    "marshal.xdr_encode_us": 1, "marshal.xdr_decode_us": 1,
    "ops.encode_request_us": 1, "ops.decode_request_us": 1,
    "ops.encode_response_us": 1, "ops.decode_response_us": 1,
    "message.write_frame_us": 2, "message.read_frame_us": 2,
    "lanes.submit_to_run_us": 2,
}
_CONTAINER_CROSSINGS = {
    "channel": {"channel.put_us": 1, "channel.get_us": 1},
    "queue": {"squeue.put_us": 1, "squeue.get_us": 1},
}


def traced_run(workload: Workload, seed: int, seconds: float,
               server_cpus: List[int], warmup: float = WARMUP_S,
               spans_path=None) -> Dict[str, object]:
    split = live.phase_seconds(seconds, traced=True)
    client_before = _client_counters(enable=True)
    session = live.Session(workload, seed, True, server_cpus)
    try:
        phases = live.run_phases(session, split, seed, warmup)
        ping_us = session.ping_rtt_us()
        # The same exchange on a container the accepting shard owns: the
        # difference to the main stream is what forwarding costs.
        local = live.Stream(session, "ledger-local", seed + 1, remote=False)
        local_p50 = local.exchange("local", split["exchange"])["p50_s"] * 1e6
        verdict = session.finish()
        stats = session.producer.stats()
    finally:
        session.close()
        client_after = _client_counters(enable=False)

    twin = live.Session(workload, seed, False, server_cpus)
    try:
        twin.main.exchange("warmup", warmup)
        twin_sat = twin.main.saturation(split["saturation"])
        twin_verdict = twin.finish()
    finally:
        twin.close()
        session.server.wait_tree_gone()
        twin.server.wait_tree_gone()

    spans = session.spans
    exchange, paced, sat = (phases[k] for k in
                            ("exchange", "paced", "saturation"))
    exchange_p50 = exchange["p50_s"] * 1e6
    exchange_tail = live.tail_us(exchange["rtts"])
    info_tail = live.tail_us(paced["latencies"])
    late_tail = live.tail_us(paced["late"])

    values: Dict[str, Optional[float]] = {
        "client.put_call_us": spans.median_us("client.put", "exchange"),
        "client.get_call_us": spans.median_us("client.get", "exchange"),
        "client.consume_call_us": spans.median_us("client.consume",
                                                  "exchange"),
        "client.item_wait_us": spans.self_time_us("exchange"),
        "client.ping_rtt_us": ping_us,
        "client.exchange_rtt_p99_us": exchange_tail["value"],
        "client.info_latency_p99_us": info_tail["value"],
        "client.gen_late_p99_us": late_tail["value"],
        "client.paced_backlog_end": float(paced["backlog_end"]),
        "client.trace_overhead_ratio": _ratio(twin_sat["per_s"],
                                              sat["per_s"]),
        "shards.local_exchange_us": local_p50,
        "shards.forward_penalty_us": exchange_p50 - local_p50,
        "server.ctx_switches_per_item": _ratio(sat["ctx_switches"],
                                               sat["delivered"]),
        "server.threads": float(sat["threads"]),
    }
    values.update(stats_metrics(stats, client_before, client_after,
                                verdict["items"]))
    values.update(probes.run_all(workload.size))
    link = _link_transport(stats)
    values.update(budget(values, workload, exchange_p50, link))

    written = 0
    if spans_path is not None:
        written = spans.write(spans_path, SPAN_SAMPLE_EVERY)
    return {
        "metrics": values,
        "attempted": verdict["attempted"] + twin_verdict["attempted"],
        "failed": verdict["failed"] + twin_verdict["failed"],
        "violations": verdict["violations"] + twin_verdict["violations"],
        "detail": {
            "shards": session.shard_map["shards"],
            "link_transport": link if workload.shards > 1 else None,
            "exchange_rtt_p50_us": exchange_p50,
            "delivered_per_s": sat["per_s"],
            "exchange_tail_us": exchange_tail,
            "info_latency_tail_us": info_tail,
            "gen_late_tail_us": late_tail,
            "items": verdict["items"],
            "spans_written": written,
        },
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("nan")


def _client_counters(enable: bool) -> Optional[Dict[str, float]]:
    """The generator's own ``rpc.client.*`` counters (flush reasons live
    in the client process, not the server's STATS); switches the local
    registry on for the traced session and off again after it."""
    try:
        from repro.obs.metrics import GLOBAL_METRICS
    except ImportError:
        return None
    if enable:
        GLOBAL_METRICS.enable()
    counters = dict(GLOBAL_METRICS.snapshot().get("counters", {}))
    if not enable:
        GLOBAL_METRICS.disable()
    return counters


def stats_metrics(stats: dict, client_before: Optional[dict],
                  client_after: Optional[dict],
                  items: int) -> Dict[str, Optional[float]]:
    """Server STATS counters as per-delivered-item ratios.

    A section the server no longer reports yields None; a counter that is
    only created on first use and is absent counts as zero.
    """
    metrics = stats.get("metrics", {})
    counters = metrics.get("counters")
    histograms = metrics.get("histograms")
    out: Dict[str, Optional[float]] = {}

    def per_item(name: str, counter: str) -> None:
        out[name] = None if counters is None or not items \
            else counters.get(counter, 0) / items

    per_item("stats.frames_in_per_item", "transport.frames_in")
    per_item("stats.frames_out_per_item", "transport.frames_out")
    per_item("stats.bytes_in_per_item", "transport.bytes_in")
    per_item("stats.reactor_wakeups_per_item", "runtime.reactor.wakeups")
    per_item("stats.partial_reads_per_item", "transport.partial_reads")
    per_item("stats.lanes_executed_per_item", "runtime.lanes.executed")

    def histogram(name: str, source: str, field: str) -> None:
        if histograms is None:
            out[name] = None
        else:  # no batch envelope seen reads as a batch fill of zero
            out[name] = float(histograms.get(source, {}).get(field, 0.0))

    histogram("stats.batch_items_mean", "rpc.server.batch_items", "mean")
    histogram("stats.server_put_us_p50", "rpc.server.put_us", "p50")
    histogram("stats.server_get_us_p50", "rpc.server.get_us", "p50")

    if client_before is None or client_after is None:
        flushes = None
    else:
        flushes = {key[len("rpc.client.flush_"):]:
                   client_after[key] - client_before.get(key, 0)
                   for key in client_after
                   if key.startswith("rpc.client.flush_")}
    total = sum(flushes.values()) if flushes else 0
    for reason in ("linger", "barrier", "size_cap"):
        out[f"stats.flush_{reason}_share"] = None if not flushes \
            else (flushes.get(reason, 0) / total if total else 0.0)

    spaces = stats.get("spaces")
    out["stats.gc_sweeps"] = None if spaces is None \
        else float(sum(space.get("gc_sweeps", 0) for space in spaces))
    containers = stats.get("containers")
    if containers is None:
        out["stats.gc_reclaimed_ratio"] = None
    else:
        put = sum(c.get("puts", 0) for c in containers)
        out["stats.gc_reclaimed_ratio"] = _ratio(
            sum(c.get("reclaimed", 0) for c in containers), put)
    if counters is None:
        out["stats.encode_cache_hit_ratio"] = None
        out["stats.shm_ring_full_parks"] = None
    else:
        hits = counters.get("core.encode_cache.hits", 0)
        lookups = hits + counters.get("core.encode_cache.misses", 0)
        out["stats.encode_cache_hit_ratio"] = \
            hits / lookups if lookups else 0.0
        out["stats.shm_ring_full_parks"] = float(
            counters.get("transport.shm.ring_full_parks", 0))
    return out


def _link_transport(stats: dict) -> str:
    """``"shm"`` or ``"tcp"``: what the shard peer links ride on."""
    for links in stats.get("peer_links", {}).values():
        for transport in links.values():
            return transport
    return "tcp"


def budget(values: Dict[str, Optional[float]], workload: Workload,
           exchange_p50_us: float, link: str) -> Dict[str, Optional[float]]:
    """The layer budget of one exchange: probe cost x crossings, summed.

    Reported, not asserted.  What the sum leaves uncovered of the measured
    round trip is wake-up and scheduling time between the layers (and the
    small frames: put ack, get request, consume).
    """
    crossings = dict(_CROSSINGS)
    crossings.update(_CONTAINER_CROSSINGS[workload.kind])
    if workload.anti_affine:
        # The put and the get each cross the peer link and come back.
        crossings[f"{link}.frame_rtt_us"] = 2
    costs: List[float] = []
    for name, times in crossings.items():
        if values.get(name) is None:
            return {"budget.sum_us": None, "budget.coverage_ratio": None}
        costs.append(values[name] * times)
    total = sum(costs)
    return {"budget.sum_us": total,
            "budget.coverage_ratio": _ratio(total, exchange_p50_us)}

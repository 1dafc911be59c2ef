"""What the ledger measures: workloads (here) and metrics (``/BENCHMARK.json``).

``BENCHMARK.json`` is the only place a metric's name, unit, direction and
bound are written down; this module reads them so the code and the
contract cannot drift.  Workload parameters live here because the
contract file has no room for them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from benchmarks.ledger import ROOT

#: Fixed by the issue, not by the host: the load generator is one process
#: with one producer and one consumer connection, the server has this
#: many lanes whatever ``cpu_count`` says.
LANES = 8
GC_INTERVAL = 0.05

#: Share of ``--seconds`` each measured phase gets (exchange, paced,
#: saturation).  The traced run uses half of each.
PHASE_SHARE = {"exchange": 0.3, "paced": 0.3, "saturation": 0.4}
WARMUP_S = 1.0
#: Every phase is cut into this many equal blocks; a phase's figure is
#: the median of its block medians, so one stall moves one block.
BLOCKS = 8
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: The paper's GC promise, liveness side: every consumed item is
#: reclaimed within this long of the last consume.
GC_DEADLINE_S = 2.0
#: A blocking get that waits this long counts its item as missing.
GET_TIMEOUT_S = 5.0


def cpu_plan() -> Tuple[List[int], List[int]]:
    """``(generator CPUs, server CPUs)`` out of the CPUs this process may use.

    Left to the scheduler on a 2-CPU host, one build lands in one of two
    regimes a factor of two apart (exchange 300 vs 650 us, 4400 vs 2000
    items/s) and switches between them mid-run as threads migrate; with the
    generator on one CPU and the server on the other, throughput still
    wanders by a quarter with the timing of cross-CPU wake-ups.  So a CPU
    each (one for the generator, whose threads share a GIL anyway, the rest
    for the server tree) only when the generator and both shard processes
    of the widest workload can have their own; otherwise everything shares
    one CPU and the scheduler has no placement to choose.  Call before
    pinning anything.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 3:
        return cpus[-1:], cpus[:-1]
    return cpus[-1:], cpus[-1:]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "channel" or "queue"
    shards: int
    size: int            # payload bytes
    rate: float          # paced phase, items per second
    window: int          # saturation phase, items put but not yet consumed
    sync_put: bool       # confirmed puts (True) or coalesced casts (False)
    anti_affine: bool = False  # container owned by the *other* shard


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("stream_1k", "channel", 1, 1024, 1000.0, 256, False),
    Workload("frames_256k", "channel", 1, 256 * 1024, 30.0, 8, False),
    Workload("xshard_1k", "channel", 2, 1024, 500.0, 256, False,
             anti_affine=True),
    Workload("queue_rpc_1k", "queue", 1, 1024, 500.0, 64, True),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0   # end-to-end metrics only


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metrics(contract: dict, group: str) -> List[Metric]:
    """The declared metrics of ``"end_to_end"`` or ``"per_layer"``."""
    return [Metric(**entry) for entry in contract[group]]

"""Command line of the ledger.

``python -m benchmarks.ledger``                      all workloads, untraced
                                                     then traced (with the
                                                     probes)
``... --workload W --seed N --seconds S --trace T``  one run; the last line
                                                     of output is the
                                                     contract's JSON object
``... compare A B``                                  pair two result sets
``... repeat --sets 2``                              same code twice: do the
                                                     sets agree?
"""

from __future__ import annotations

import argparse
import itertools
import os
import signal
import sys
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from benchmarks.ledger import report, server, spec

#: ``--quick``: phases of about a second, one set-up.  For the smoke test;
#: never recorded.
QUICK = {"seconds": 2.5, "warmup": 0.2, "setups": 1}


def prepare_host() -> Dict[str, object]:
    """Fingerprint the host, then pin this process to the generator's CPU."""
    host = report.fingerprint()
    generator_cpus, server_cpus = spec.cpu_plan()
    os.sched_setaffinity(0, generator_cpus)
    host["generator_cpus"] = generator_cpus
    host["server_cpus"] = server_cpus
    return host


def run_one(workload: spec.Workload, traced: bool, seed: int, seconds: float,
            quick: bool, contract: dict, host: Dict[str, object],
            tamper: Optional[Callable] = None) -> Dict[str, object]:
    from benchmarks.ledger.live import untraced_run
    from benchmarks.ledger.traced import traced_run

    warmup = QUICK["warmup"] if quick else spec.WARMUP_S
    if traced:
        report.RESULTS_DIR.mkdir(exist_ok=True)
        run = traced_run(
            workload, seed, seconds, host["server_cpus"], warmup=warmup,
            spans_path=report.RESULTS_DIR / f"spans-{workload.name}.jsonl")
    else:
        run = untraced_run(
            workload, seed, seconds, host["server_cpus"], warmup=warmup,
            setups=QUICK["setups"] if quick else spec.SETUPS, tamper=tamper)
    group = "per_layer" if traced else "end_to_end"
    return report.build_result(workload, traced, seed, seconds, quick, host,
                               run, spec.metrics(contract, group))


def make_tamper(kind: str, at: int = 40) -> Callable:
    """Spoil the *at*-th delivery the way *kind* says (smoke test only)."""
    recent: Deque[tuple] = deque(maxlen=2)
    count = itertools.count(1)

    def tamper(timestamp: int, item: bytes) -> List[tuple]:
        recent.append((timestamp, item))
        position = next(count)
        if kind == "reorder":  # swap deliveries *at* and *at* + 1
            if position == at:
                return []
            if position == at + 1:
                return [recent[1], recent[0]]
        elif position == at:
            if kind == "corrupt":
                flipped = item[:5] + bytes([item[5] ^ 1]) + item[6:]
                return [(timestamp, flipped)]
            if kind == "duplicate":
                return [recent[0], recent[1]]
            return []  # drop
        return [(timestamp, item)]

    return tamper


def _run_command(argv: List[str]) -> int:
    contract = spec.load_contract()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="measured seconds per untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: untraced run, end-to-end metrics; 1: traced "
                             "run and probes, per-layer metrics "
                             "(default: both, untraced first)")
    parser.add_argument("--quick", action="store_true",
                        help="phases of about 1 s, for the smoke test; "
                             "never recorded")
    parser.add_argument("--json", metavar="OUT",
                        help="write every run's full result to OUT")
    parser.add_argument("--record", action="store_true",
                        help=f"append one line per run to {report.HISTORY}")
    parser.add_argument("--inject", help=argparse.SUPPRESS,
                        choices=("corrupt", "drop", "duplicate", "reorder"))
    args = parser.parse_args(argv)

    seconds = QUICK["seconds"] if args.quick else args.seconds
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    modes = [args.trace == "1"] if args.trace else [False, True]
    tamper = make_tamper(args.inject) if args.inject else None
    host = prepare_host()
    results = []
    for traced in modes:
        for name in names:
            result = run_one(spec.WORKLOADS[name], traced, args.seed,
                             seconds, args.quick, contract, host,
                             tamper=tamper)
            report.print_result(result)
            results.append(result)
    if args.json:
        report.write_json(args.json, results)
    if args.record and not args.quick:
        report.record(results)
    if len(results) == 1:
        print(report.contract_line(results[0]))
    return 0 if all(result["correct"] for result in results) else 1


def _compare_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger compare",
        description="Per workload and end-to-end metric: medians, quartiles "
                    "and improved / unchanged / unresolved / regressed.")
    parser.add_argument("base", help="--json file, or directory of them")
    parser.add_argument("change", help="--json file, or directory of them")
    args = parser.parse_args(argv)
    declared = spec.metrics(spec.load_contract(), "end_to_end")
    return report.compare(args.base, args.change, declared)


def _repeat_command(argv: List[str]) -> int:
    contract = spec.load_contract()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger repeat",
        description="Run full sets of the same code back to back; exit 1 "
                    "when an end-to-end metric differs between the sets by "
                    "more than its bound.")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload in a set, each on its own "
                             "seed; a set's figure is their median")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    host = prepare_host()
    sets: List[List[Dict[str, object]]] = []
    seed = 1
    for index in range(args.sets):
        runs = []
        for name, workload in spec.WORKLOADS.items():
            for _ in range(args.runs):
                result = run_one(workload, False, seed, args.seconds, False,
                                 contract, host)
                seed += 1
                print(f"set {index + 1} {name} seed {result['seed']}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                  result["metrics"].items()), flush=True)
                runs.append(result)
        sets.append(runs)
    if args.json:
        report.write_json(args.json, [run for runs in sets for run in runs])
    incorrect = any(not run["correct"] for runs in sets for run in runs)
    disagree = report.sets_disagree(
        sets, spec.metrics(contract, "end_to_end"))
    return 1 if incorrect or disagree else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"compare": _compare_command, "repeat": _repeat_command}
    # Every way out, a SIGTERM too, ends with no process of ours alive.
    server.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return _run_command(argv)
    finally:
        killed = server.reap_children()
        if killed:
            print(f"killed stragglers: {killed}", file=sys.stderr)

"""Results under one schema: fingerprint, printing, history, comparison."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from benchmarks.ledger import ROOT
from benchmarks.ledger.spec import LANES, Metric, Workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"
HISTORY = RESULTS_DIR / "history.jsonl"
SCHEMA = 1


def fingerprint() -> Dict[str, object]:
    """Host and configuration a result was measured under."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # an exported checkout has no repository
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "kernel": platform.release(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith("DSTAMPEDE_")},
    }


def build_result(workload: Workload, traced: bool, seed: int, seconds: float,
                 quick: bool, host: Dict[str, object], run: Dict[str, object],
                 declared: List[Metric]) -> Dict[str, object]:
    """One run in the ledger's schema, restricted to the declared metrics."""
    metrics: Dict[str, Dict[str, object]] = {}
    missing: List[str] = []
    for metric in declared:
        value = run["metrics"].get(metric.name)
        if value is not None and not math.isfinite(value):
            value = None
        if value is None:
            missing.append(metric.name)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    attempted, failed = run["attempted"], run["failed"]
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "traced": traced,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "host": host,
        "config": {"lanes": LANES, "shards": run["detail"]["shards"],
                   "codec": "xdr", "connections": 2, "generator_threads": 2},
        "correct": not run["violations"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "missing": missing,
        "violations": run["violations"],
        "detail": run["detail"],
    }


def contract_line(result: Dict[str, object]) -> str:
    """The one JSON object the benchmark contract wants as the last line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def print_result(result: Dict[str, object], out=sys.stdout) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed {result['seed']}, "
          f"{result['seconds']:g} s, shards={result['config']['shards']}) "
          f"correct={result['correct']} failed_ratio="
          f"{result['failed_ratio']:.6f} "
          f"({result['failed']}/{result['attempted']})", file=out)
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null (missing)" if value is None else f"{value:.4f}"
        print(f"  {name:36s} {shown:>16s} {entry['unit']}", file=out)
    for key, value in result["detail"].items():
        print(f"  . {key}: {json.dumps(_clean(value))}", file=out)
    for violation in result["violations"]:
        print(f"  ! {violation}", file=out)


def _clean(value):
    """NaN is not JSON: write it as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return value


def write_json(path: str, results: List[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_clean({"schema": SCHEMA, "runs": results}), handle,
                  indent=1)
        handle.write("\n")


def record(results: Iterable[Dict[str, object]]) -> None:
    """Append one line per run to the history kept in the repo."""
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as handle:
        for result in results:
            slim = {key: value for key, value in result.items()
                    if key != "detail"}
            handle.write(json.dumps(_clean(slim)) + "\n")


# -- comparison ---------------------------------------------------------------


def load_runs(path: str) -> List[Dict[str, object]]:
    """Runs from a ``--json`` file, a history file, or a directory of them."""
    target = Path(path)
    files = sorted(target.glob("*.json*")) if target.is_dir() else [target]
    runs: List[Dict[str, object]] = []
    for file in files:
        text = file.read_text(encoding="utf-8")
        if file.suffix == ".jsonl":
            runs += [json.loads(line) for line in text.splitlines() if line]
        else:
            runs += json.loads(text)["runs"]
    return [run for run in runs if not run["traced"] and not run["quick"]]


def values_by_key(runs: List[Dict[str, object]]
                  ) -> Dict[Tuple[str, str], List[float]]:
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            if entry["value"] is not None:
                table.setdefault((run["workload"], name), []).append(
                    entry["value"])
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(base: List[float], change: List[float], metric: Metric) -> str:
    """improved / unchanged / unresolved / regressed (guide section 8).

    The base side's own quartile spread is the noise floor: wider than the
    metric's bound and nothing can be said; a gain must clear it and win
    nine pairs in ten.
    """
    b_first, b_median, b_third = quartiles(base)
    _, c_median, _ = quartiles(change)
    spread = b_third - b_first
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (c_median - b_median)
    if spread > metric.bound * abs(b_median):
        return "unresolved"
    if worse_by > metric.bound * abs(b_median):
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    decided = wins + losses
    if -worse_by > spread and decided and wins >= 0.9 * decided:
        return "improved"
    return "unchanged"


def compare(base_path: str, change_path: str, declared: List[Metric],
            out=sys.stdout) -> int:
    """Print one row per workload and end-to-end metric; 1 on a regression."""
    base = values_by_key(load_runs(base_path))
    change = values_by_key(load_runs(change_path))
    by_name = {metric.name: metric for metric in declared}
    regressed = False
    print(f"{'workload':14s} {'metric':26s} {'base median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'change/base':>12s}  verdict",
          file=out)
    for (workload, name), b_values in sorted(base.items()):
        c_values = change.get((workload, name))
        if c_values is None or name not in by_name:
            continue
        b = quartiles(b_values)
        c = quartiles(c_values)
        outcome = verdict(b_values, c_values, by_name[name])
        regressed |= outcome == "regressed"
        print(f"{workload:14s} {name:26s} "
              f"{_spread_text(b, len(b_values)):>38s} "
              f"{_spread_text(c, len(c_values)):>38s} "
              f"{c[1] / b[1]:>7.3f}x of {b[1]:.4g}  {outcome}", file=out)
    return 1 if regressed else 0


def _spread_text(q: Tuple[float, float, float], count: int) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={count}"


def sets_disagree(sets: List[List[Dict[str, object]]],
                  declared: List[Metric], out=sys.stdout) -> bool:
    """Do the set medians of any end-to-end metric differ beyond its bound?"""
    tables = [values_by_key(runs) for runs in sets]
    by_name = {metric.name: metric for metric in declared}
    disagree = False
    for key in sorted(tables[0]):
        workload, name = key
        metric = by_name.get(name)
        if metric is None:
            continue
        medians = [statistics.median(table[key]) for table in tables
                   if key in table]
        low, high = min(medians), max(medians)
        gap = (high - low) / abs(medians[0]) if medians[0] else float("inf")
        agrees = gap <= metric.bound
        disagree |= not agrees
        print(f"{workload:14s} {name:26s} set medians "
              f"{', '.join(f'{m:.4g}' for m in medians)}  gap {gap:.3f} "
              f"of {medians[0]:.4g} (bound {metric.bound})  "
              f"{'ok' if agrees else 'DISAGREE'}", file=out)
    return disagree

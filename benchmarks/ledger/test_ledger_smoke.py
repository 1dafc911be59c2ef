"""Smoke test of the perf ledger (outside tier-1's ``testpaths``).

``python -m pytest benchmarks/ledger/test_ledger_smoke.py -q``
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading

import pytest

from benchmarks.ledger import ROOT, spec
from benchmarks.ledger.payload import PayloadFactory, Verifier
from benchmarks.ledger.server import process_tree

CONTRACT = spec.load_contract()


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", *args], cwd=str(ROOT),
        capture_output=True, text=True, timeout=170)


def _last_json(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


def _children_of_this_process() -> list:
    return [pid for pid in process_tree(os.getpid()) if pid != os.getpid()]


def test_contract_names_the_workloads_the_code_runs():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(spec.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_declared_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    process = _run("--workload", workload, "--quick", "--trace", trace,
                   "--json", str(out))
    assert process.returncode == 0, process.stdout + process.stderr
    line = _last_json(process)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1

    (result,) = json.loads(out.read_text())["runs"]
    assert result["failed_ratio"] == 0
    group = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared[name]
        if entry["value"] is None:
            assert name in result["missing"], name
        else:
            assert math.isfinite(entry["value"]), name
    for key in ("cpu_count", "affinity", "python", "kernel",
                "loadavg_start", "git_commit", "env"):
        assert key in result["host"]

    expected_shards = spec.WORKLOADS[workload].shards
    assert result["config"]["shards"] == expected_shards
    assert result["config"]["lanes"] == spec.LANES
    if trace == "1" and workload == "xshard_1k":
        assert line["metrics"]["shards.forward_penalty_us"]["value"] > 0
        assert result["detail"]["link_transport"] in ("shm", "tcp")


@pytest.mark.parametrize("kind", ["corrupt", "drop", "duplicate", "reorder"])
def test_command_fails_when_a_delivery_is_spoiled(kind):
    process = _run("--workload", "stream_1k", "--quick", "--trace", "0",
                   "--inject", kind)
    assert process.returncode != 0
    line = _last_json(process)
    assert line["correct"] is False and line["failed"] > 0


def test_verifier_rejects_each_kind_of_bad_delivery():
    factory = PayloadFactory(seed=7, size=256)
    items = [factory.make(i, float(i)) for i in range(6)]

    def violations(deliveries, put=6):
        verifier = Verifier(256)
        for timestamp, item in deliveries:
            verifier.deliver(timestamp, item)
        return verifier.finish(put)

    good = list(enumerate(items))
    assert violations(good) == []
    corrupt = bytes([items[2][0] ^ 0xFF]) + items[2][1:]
    assert violations(good[:2] + [(2, corrupt)] + good[3:])
    assert violations(good[:3] + good[4:]), "a dropped item"
    assert violations(good[:3] + [good[2]] + good[3:]), "a duplicate"
    assert violations(good[:2] + [good[3], good[2]] + good[4:]), "reordered"
    assert violations(good[:5]), "the last item never arrived"
    assert violations([(0, items[1])] + good[1:]), "wrong item at a timestamp"


def test_same_seed_gives_same_items():
    one = PayloadFactory(seed=3, size=1024)
    two = PayloadFactory(seed=3, size=1024)
    other = PayloadFactory(seed=4, size=1024)
    assert one.make(5, 1.5) == two.make(5, 1.5)
    assert one.make(5, 1.5) != other.make(5, 1.5)
    assert len(one.make(5, 1.5)) == 1024


def test_xshard_leaves_nothing_behind():
    """No server process, ``/dev/shm`` entry or thread survives a run."""
    from benchmarks.ledger.live import Session

    shm_before = set(os.listdir("/dev/shm"))
    threads_before = threading.active_count()
    session = Session(spec.WORKLOADS["xshard_1k"], 1, False,
                      server_cpus=spec.cpu_plan()[1])
    try:
        tree = session.server.tree()
        assert len(tree) >= 2, "two shards are at least two processes"
        session.main.exchange("smoke", 0.3)
        assert session.finish()["violations"] == []
    finally:
        session.close()
        session.server.wait_tree_gone()
    assert not any(os.path.exists(f"/proc/{pid}") for pid in tree)
    assert _children_of_this_process() == []
    assert set(os.listdir("/dev/shm")) <= shm_before
    assert threading.active_count() <= threads_before


def test_compare_classifies_a_regression(tmp_path, capsys):
    from benchmarks.ledger import report

    def runs(scale):
        return {"runs": [{
            "workload": "stream_1k", "traced": False, "quick": False,
            "metrics": {"delivered_per_s": {"value": 1000.0 * scale + i,
                                            "unit": "items/s"}},
        } for i in range(10)]}

    for name, scale in (("base", 1.0), ("slow", 0.6), ("fast", 1.4)):
        (tmp_path / f"{name}.json").write_text(json.dumps(runs(scale)))
    declared = spec.metrics(CONTRACT, "end_to_end")
    base = str(tmp_path / "base.json")
    assert report.compare(base, str(tmp_path / "slow.json"), declared) == 1
    assert "regressed" in capsys.readouterr().out
    assert report.compare(base, str(tmp_path / "fast.json"), declared) == 0
    assert "improved" in capsys.readouterr().out
    assert report.compare(base, base, declared) == 0
    assert "unchanged" in capsys.readouterr().out

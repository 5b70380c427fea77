"""Smoke test of the repo benchmark's plumbing (outside tier-1 ``testpaths``).

Runs ``run.py --smoke`` once and checks that every workload and metric
``BENCHMARK.json`` names is emitted, by a name the contract allows, and
that the output parses.  It checks no number.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "perf" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_names_are_well_formed(spec):
    names = [e["name"] for kind in ("workloads", "end_to_end", "per_layer") for e in spec[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(e["name"] == "setup_s" and e["unit"] == "s" for e in spec["end_to_end"])


def test_every_workload_and_metric_is_emitted(spec, report):
    # The suite runs two workloads more than the driver does: see README.
    assert set(report["workloads"]) > {w["name"] for w in spec["workloads"]}
    for name, entry in report["workloads"].items():
        assert not entry["problems"], (name, entry["problems"])
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert entry["end_to_end"]["failed_txn_ratio"]["median"] == 0
        kill = name == "kill_coordinator_3pc"
        for metric in spec["end_to_end"]:
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"]
            # The kill workload serves no load; the others lose no coordinator.
            measured = metric["name"] in ("termination_ms", "setup_s") if kill else (
                metric["name"] != "termination_ms"
            )
            assert (got["median"] is not None) == measured, (name, metric["name"])
    for metric in spec["per_layer"]:
        # commit_p99_ms is end-to-end to the suite, ungated to the driver.
        medians = [
            {**entry["end_to_end"], **entry["per_layer"]}[metric["name"]]["median"]
            for entry in report["workloads"].values()
        ]
        assert any(m is not None for m in medians), metric["name"]


@pytest.mark.parametrize("workload", ["serial_2pc_json", "pipelined_3pc_bin"])
def test_contract_line(spec, workload):
    """A contract-mode run prints every end-to-end metric, non-zero, as its last line."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_compare_flags_a_regression(tmp_path, report):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    slower = json.loads(json.dumps(report))
    slow = slower["workloads"]["serial_2pc_json"]["end_to_end"]["commit_p50_ms"]
    for key in ("median", "q1", "q3"):
        slow[key] *= 2
    b.write_text(json.dumps(slower))
    same = subprocess.run([sys.executable, str(RUN), "--compare", str(a), str(a)],
                          capture_output=True, text=True)
    assert same.returncode == 0 and "worse" not in same.stdout
    worse = subprocess.run([sys.executable, str(RUN), "--compare", str(a), str(b)],
                           capture_output=True, text=True)
    assert worse.returncode == 1 and "worse" in worse.stdout
    failing = json.loads(json.dumps(report))
    ratio = failing["workloads"]["kill_coordinator_3pc"]["end_to_end"]["failed_txn_ratio"]
    ratio["median"] = ratio["q3"] = 0.125
    b.write_text(json.dumps(failing))
    failed = subprocess.run([sys.executable, str(RUN), "--compare", str(a), str(b)],
                            capture_output=True, text=True)
    assert failed.returncode == 1 and "failed_txn_ratio" in failed.stdout

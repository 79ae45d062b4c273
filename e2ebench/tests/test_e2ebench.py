"""Self-tests of the benchmark at smoke scale (toy inputs, one-second loops).

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
Each test starts ``e2ebench/run.py`` as a subprocess, exactly as the
benchmark is driven, and reads the JSON object on its last output line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(*args, check=True):
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--scale", "smoke", "--seed", "3",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if check:
        assert done.returncode == 0, done.stderr[-3000:]
    return done


def result(done) -> dict:
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_prints_the_contract_metrics(trace):
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for workload in WORKLOADS:
        doc = result(run("--workload", workload, "--trace", trace))
        assert doc["correct"] and doc["failed"] == 0, workload
        assert doc["attempted"] >= 1
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
        if trace == "0":
            assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_corrupted_digest_counts_as_failed_operations(tmp_path):
    table = json.loads((ROOT / "e2ebench" / "digests.json").read_text())
    for entry in table["apps"].values():
        entry["quality"] = repr(float(entry["quality"]) + 1.0)
    for key in table["characterize"]:
        table["characterize"][key] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(table))
    for workload in WORKLOADS:
        doc = result(run("--workload", workload, "--trace", "0",
                         "--digests", str(corrupted)))
        assert not doc["correct"], workload
        assert doc["failed"] / doc["attempted"] > 0, workload


def test_traced_self_times_reconcile_with_wall_time():
    for workload in WORKLOADS:
        metrics = result(run("--workload", workload, "--trace", "1"))["metrics"]
        ratio = metrics["trace.reconcile_ratio"]["value"]
        assert 0.9 <= ratio <= 1.02, (workload, ratio)
        task_ratio = metrics["trace.task_reconcile_ratio"]["value"]
        if metrics["runtime.runner.tasks"]["value"]:
            assert 0.9 <= task_ratio <= 1.02, (workload, task_ratio)


def test_refuses_settings_that_change_the_engine(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "fused")
    done = run("--workload", WORKLOADS[0], check=False)
    assert done.returncode != 0
    assert "REPRO_BACKEND" in done.stderr

"""Smoke test of the benchmark itself: every workload at reduced length.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced with --seconds 1 (three
passes untraced, one warming, one untraced and one traced pass traced).
The test checks that every metric BENCHMARK.json names is printed by name
with its unit, and that no job fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *report, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[-1] for line in report if line.startswith("  ")}
    assert printed == wanted
    if not trace:
        assert result["metrics"]["correct_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny size.  Asserts that the run succeeds, that its checks pass, and
that every metric the workload owes is printed with its declared unit.

    python3 -m pytest -q bench/smoke.py

The file name does not match pytest's test_*.py pattern, so the Tier-1
run (`pytest` from the repository root) does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(RUN.parent))
from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failed_checks"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    owed = {m["name"]: m["unit"] for m in SPEC[key]}
    assert set(result["metrics"]) == set(owed)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == owed[name], name
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = details["environment"]
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["numpy"] and env["nproc"] >= 1


def test_declared_workloads_match():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        WORKLOAD_NAMES)
    assert sorted(m["name"] for m in SPEC["end_to_end"]) == sorted(END_TO_END)

"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload untraced and traced with ``--size tiny`` and checks the
result line: the metric names and units match ``BENCHMARK.json``, the
correctness checks pass, and the traced outputs match the untraced ones.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_harness_runs(workload, trace):
    detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert len(detail["digest"]) == 64
    if trace:
        assert detail["digest"] == detail["digest_untraced"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
        assert detail["error_rate"] == 0.0

"""The benchmark's own test: every workload at a tiny size, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each run must pass its output checks with no failed operation and print
exactly the metrics ``BENCHMARK.json`` names, with the same units and
directions, and nothing else.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAIL_PREFIX = "bench-detail "


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len(DETAIL_PREFIX):]) for ln in lines if ln.startswith(DETAIL_PREFIX))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_spec(workload: str, trace: int) -> None:
    result, detail = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
    printed = {name: (m["unit"], m["better"]) for name, m in detail[key].items()}
    assert printed == spec
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in spec.items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program() -> None:
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "short-jobs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test of the benchmark harness, at minimal run length.

    python3 -m pytest -q perfbench/test_smoke.py     (about two minutes)

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, that no operation fails, that two traced runs count the same
LAPACK calls (the tracer adds or loses none), and that the harness refuses
to run without the package source next to it.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    return result


def assert_metrics(result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench(ROOT, workload, trace=0))
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_lapack_counts(workload):
    first, second = (result_of(bench(ROOT, workload, trace=1)) for _ in range(2))
    assert_metrics(first, "per_layer")
    lapack = [
        {k: m["value"] for k, m in r["metrics"].items()
         if k.startswith("lapack.") and k.endswith(".calls")}
        for r in (first, second)
    ]
    assert lapack[0] == lapack[1]
    assert sum(lapack[0].values()) > 0


def test_refuses_to_run_without_package_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, WORKLOADS[0], trace=0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

"""Smoke run of the benchmark harness, so that it cannot rot.

Runs every workload once at its smallest sizes, untraced and traced:

    python -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORKLOADS = ("q-dense", "zp-gauge", "fp-glued", "tiny-bigint")


def _run(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(REPO, BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = END_TO_END if trace == 0 else PER_LAYER
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]


def test_refuses_without_sources(tmp_path):
    """Without the library sources the harness exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, tmp_path / "bench" / "run.py", "q-dense", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

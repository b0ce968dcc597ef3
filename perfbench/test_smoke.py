"""Smoke test of the benchmark: tiny sizes, every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs ``perfbench/run.py --smoke`` in a fresh interpreter and
checks the result line against BENCHMARK.json, so a broken benchmark
fails here in about a minute instead of after a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS  # slice_d10_w2 too, which BENCHMARK.json leaves out

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_bench(ROOT, workload, 0, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    provenance = json.loads(out.stdout.splitlines()[-2])["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "git_rev", "SQGRAD_MAX_WORKERS", "sizes"):
        assert key in provenance


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_on_a_second_seed(workload):
    out = run_bench(ROOT, workload, 7, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["metrics"]["passed_share"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0, 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

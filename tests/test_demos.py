"""The committed demo outputs reproduce byte for byte, and the demos
refuse bad options as usage errors."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO = REPO_ROOT / "demos" / "slice_benchmark.py"
COMMITTED = REPO_ROOT / "demos" / "out"


def _load_demo():
    spec = importlib.util.spec_from_file_location("slice_benchmark", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workers", ["1", "2"])
def test_slice_d10_short_reproduces_the_committed_bytes(
    workers, tmp_path, monkeypatch, capsys
):
    # The demo's short run (budget 10 000, 8 trials), as a user runs it
    # from the repository root, into a fresh directory.
    monkeypatch.setenv("SQGRAD_MAX_WORKERS", workers)
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--out-dir", str(tmp_path)])
    _load_demo().main()
    capsys.readouterr()
    for name in ("slice_d10_short.csv", "slice_d10_short.svg"):
        fresh = (tmp_path / name).read_bytes()
        assert fresh == (COMMITTED / name).read_bytes(), name


@pytest.mark.parametrize("option", [["--samples", "0"], ["--seed", "-1"]])
def test_gradient_sanity_refuses_a_bad_option_as_a_usage_error(option):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / "gradient_sanity.py"), *option],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "must be at least" in done.stderr

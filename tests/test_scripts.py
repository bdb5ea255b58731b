"""Smoke runs of the analysis scripts, which import library names directly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from segfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("run_policy_comparison.py", ["--seeds", "1", "--iterations", "5"],
         ["policy_comparison.csv"]),
        ("run_correlation.py", ["--seeds", "1", "--iterations", "5"],
         ["certainty_iou_cosine.csv"]),
        ("run_certainty_histograms.py", [],
         ["certainty_hist_teacher0.csv", "certainty_hist_underperformer.csv"]),
    ],
)
def test_script_runs_and_writes_csv(tmp_path, script, args, outputs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path)]
    done = subprocess.run(cmd + args, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).read_text().count("\n") >= 2, name


def test_run_all_experiments_matches_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outdir = tmp_path / "results"
    cmd = [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"),
           "--outdir", str(outdir), "--seeds", "1"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("kernel_sweep.csv", "robustness.csv", "flexibility.csv", "prop_checks.jsonl"):
        assert (outdir / name).is_file(), name
    cli_csv = tmp_path / "robustness.csv"
    argv = ["experiment", "robustness", "--seeds", "1", "--iterations", "120",
            "--seed", "0", "-o", str(cli_csv)]
    assert main(argv) == 0
    assert (outdir / "robustness.csv").read_bytes() == cli_csv.read_bytes()

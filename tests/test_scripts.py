"""Smoke run of the one script, which drives every `segfuse experiment` kind."""

import os
import subprocess
import sys
from pathlib import Path

from segfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_run_all_experiments_matches_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outdir = tmp_path / "results"
    cmd = [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"),
           "--outdir", str(outdir), "--seeds", "1"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("kernel_sweep.csv", "robustness.csv", "flexibility.csv",
                 "prop_checks.jsonl", "policy_comparison.csv", "certainty_iou_cosine.csv",
                 "certainty_hist.csv"):
        assert (outdir / name).is_file(), name
    cli_csv = tmp_path / "robustness.csv"
    argv = ["experiment", "robustness", "--seeds", "1", "--iterations", "120",
            "--seed", "0", "-o", str(cli_csv)]
    assert main(argv) == 0
    assert (outdir / "robustness.csv").read_bytes() == cli_csv.read_bytes()

"""Smoke runs of the analysis scripts, which import library names directly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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

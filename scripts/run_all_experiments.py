#!/usr/bin/env python3
"""Run the seven CLI experiment kinds with standard settings into results/."""

import argparse
import os
import sys

from segfuse.cli import main

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--outdir", default="results")
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--seeds", type=int, default=10)
args = parser.parse_args()

os.makedirs(args.outdir, exist_ok=True)
seeds = ["--seeds", str(args.seeds)]
jobs = [  # kind, its arguments besides --seed and -o, output file
    ("kernel-sweep", seeds, "kernel_sweep.csv"),
    ("robustness", [*seeds, "--iterations", "120"], "robustness.csv"),
    ("flexibility", ["--rounds", "3"], "flexibility.csv"),
    ("prop-check", ["--instances", "500"], "prop_checks.jsonl"),
    ("policy-quality", seeds, "policy_comparison.csv"),
    ("correlation", seeds, "certainty_iou_cosine.csv"),
    ("certainty-hist", [], "certainty_hist.csv"),
]
for kind, extra, name in jobs:
    job = ["experiment", kind, *extra, "--seed", str(args.seed),
           "-o", f"{args.outdir}/{name}"]
    print("segfuse", " ".join(job))
    rc = main(job)
    if rc != 0:
        sys.exit(rc)
print(f"wrote {len(jobs)} result files to {args.outdir}/")

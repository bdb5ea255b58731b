"""Run every workload untraced and traced, and compare the two runs.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 1] [--seconds 10]

For each workload this prints the untraced run's end-to-end report, the
traced run's per-layer table, the tracing overhead (traced minus untraced
op_s_p50) and whether both runs produced the same output fingerprints.
Exits 1 when a run fails, an op fails or the fingerprints differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    ).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def fingerprints(lines: list[str]) -> list[str]:
    return sorted(ln.rsplit(" ops=", 1)[0] for ln in lines if ln.startswith("fingerprint "))


def traced_p50(lines: list[str]) -> float:
    line = next(ln for ln in lines if ln.startswith("traced op_s_p50="))
    return float(line.split("=", 1)[1].split()[0])


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="untraced and traced runs of every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()

    ok = True
    summary = []
    for name in WORKLOADS:
        plain_lines, plain = run(name, args.seed, args.seconds, 0)
        traced_lines, traced = run(name, args.seed, args.seconds, 1)
        print(f"== {name}: untraced run")
        print("\n".join(plain_lines))
        print(f"== {name}: traced run")
        print("\n".join(traced_lines))
        same = fingerprints(plain_lines) == fingerprints(traced_lines)
        p50 = plain["metrics"]["op_s_p50"]["value"]
        overhead = traced_p50(traced_lines) - p50
        correct = plain["correct"] and traced["correct"]
        ok = ok and same and correct
        summary.append(f"{name:16s} op_s_p50={p50:.4f} s  tracing overhead={overhead:+.4f} s "
                       f"({overhead / p50:+.1%})  fingerprints {'identical' if same else 'DIFFER'}"
                       f"  correct={correct}")
    print("== summary (overhead is one run each way, so it includes run-to-run noise)")
    print("\n".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

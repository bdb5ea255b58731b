"""segfuse benchmark: one workload, one closed loop, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuse-large --seed 1 --seconds 10 --trace 0

Set-up builds the workload's inputs from ``--seed`` with the segfuse CLI in
a child process, several times, and reports the median.  After each set-up
a single caller runs ops back to back, each driving ``segfuse.cli.main``
in-process, until the ops have taken a third of ``--seconds`` more (at
least one op in all).  Outputs are fingerprinted and checked after each
op's clock stops.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` the layer functions are wrapped
(see ``tracer.py``) and it holds the per-layer metrics.  The program runs
with one BLAS thread and one segfuse worker.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from setup_child import peak_rss_mb

# Pinned before numpy loads OpenBLAS; the set-up children inherit them.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "SEGFUSE_THREADS": "1"}
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ[k] for k in PINNED},
        "loadavg": ",".join(f"{v:.2f}" for v in os.getloadavg()),
    }


def setup_once(workload, d: str) -> tuple[float, float]:
    """Build the workload's inputs in ``d`` in a child: (wall s, peak RSS MB)."""
    os.makedirs(d)
    argvs = json.dumps(workload.setup_argvs(d))
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_child.py"), argvs],
                             env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError(f"set-up step took over {SETUP_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    if child.returncode != 0:
        raise RuntimeError(f"set-up step failed with status {child.returncode}")
    return wall, json.loads(out.splitlines()[-1])["peak_rss_mb"]


def tail_percentile(times: list[float]):
    """Highest whole percentile (p50 or above) with at least ten ops beyond it, or None."""
    n = len(times)
    q = int(100 * (n - 10) / n) if n > 10 else 0
    if q < 50:
        return None
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Loop:
    """Closed loop over ops, with each op's time, fingerprint and failure."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.times, self.prints, self.errors = [], [], []
        self.distinct = {}  # fingerprint -> outputs, checked once each
        self.first_op_peak_mb = None

    def run_until(self, seconds: float) -> None:
        """Run ops until the measured op time reaches ``seconds`` (at least one op)."""
        while not self.times or sum(self.times) < seconds:
            if self.tracer:
                self.tracer.begin_op()
            t0 = time.perf_counter()
            try:
                rcs, captured = self.workload.op()
            except Exception as e:  # an op that raises is counted as failed, not fatal
                self._record(time.perf_counter() - t0, None, f"{type(e).__name__}: {e}")
                continue
            elapsed = time.perf_counter() - t0
            if self.first_op_peak_mb is None:
                # A CLI user runs one command per process.  Later ops inherit
                # the heap of earlier ones, so their peak would depend on how
                # many ops fit in the run.
                self.first_op_peak_mb = peak_rss_mb()
            if any(rcs):
                self._record(elapsed, None, f"exit codes {rcs}")
                continue
            outputs = self.workload.collect(captured)
            fp = tuple((name, sha(data)) for name, data in sorted(outputs.items()))
            self.distinct.setdefault(fp, outputs)
            self._record(elapsed, fp, None)

    def _record(self, elapsed, fp, error):
        self.times.append(elapsed)
        self.prints.append(fp)
        self.errors.append(error)


def verdict(workload, outputs) -> tuple[list[str], float]:
    """(failures, mIoU) of one distinct output; a check that raises is a failure."""
    try:
        return workload.check(outputs)
    except (ValueError, KeyError, TypeError) as e:
        return [f"output check raised {type(e).__name__}: {e}"], 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "segfuse", "__init__.py")):
        print(f"error: segfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import segfuse
    import tracer as tracing
    from workloads import WORKLOADS

    if not os.path.abspath(segfuse.__file__).startswith(SRC):
        print(f"error: imported segfuse from {segfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        loop = Loop(workload, tracer)
        # Untraced runs report the median set-up; traced runs report none.
        repeats = 1 if args.trace else workload.setup_repeats
        walls, peaks = [], []
        if tracer:
            tracer.install()
        try:
            # Batches of ops follow each set-up, so a run samples the
            # machine's drifting speed over a longer window.
            for rep in range(repeats):
                d = os.path.join(workdir, f"setup{rep}")
                wall, peak = setup_once(workload, d)
                walls.append(wall)
                peaks.append(peak)
                if rep:
                    shutil.rmtree(workload.workdir)
                workload.workdir = d  # every repetition writes the same files
                loop.run_until(args.seconds * (rep + 1) / repeats)
        finally:
            if tracer:
                tracer.uninstall()
        verdicts = {fp: verdict(workload, outputs) for fp, outputs in loop.distinct.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it
    times, prints, errors, distinct = loop.times, loop.prints, loop.errors, loop.distinct
    setup_s, setup_rss = statistics.median(walls), statistics.median(peaks)

    reference = next((fp for fp in prints if fp is not None), None)
    for i, fp in enumerate(prints):
        if fp is not None and verdicts[fp][0]:
            errors[i] = "; ".join(verdicts[fp][0])
        elif fp is not None and fp != reference:
            errors[i] = "output differs from the first op on the same inputs"
    failed = sum(e is not None for e in errors)
    ops = len(times)
    op_time = sum(times)
    miou = verdicts[reference][1] if reference else 0.0

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={ops} failed={failed}")
    for i, e in enumerate(errors):
        if e is not None:
            print(f"op {i} failed: {e}")
    for fp in distinct:
        for name, digest in fp:
            print(f"fingerprint {args.workload} seed={args.seed} {name} sha256={digest} "
                  f"ops={prints.count(fp)}/{ops}")

    p50 = statistics.median(times)
    tail = tail_percentile(times)
    tail_text = (f"p{tail[0]}={tail[1]:.4f} s (n={ops})" if tail
                 else f"omitted: p50 or above with ten ops beyond it needs 20 ops, run has {ops}")
    e2e = {
        "setup_s": (setup_s, "s"),
        "setup_peak_rss_mb": (setup_rss, "MB"),
        "ops_per_min": (60.0 * ops / op_time, "ops/min"),
        "op_s_p50": (p50, "s"),
        "peak_rss_mb": (loop.first_op_peak_mb or peak_rss_mb(), "MB"),
        "miou": (miou, "mIoU"),
    }
    if tracer:
        print(f"traced op_s_p50={p50:.6f} s (compare the untraced run for tracing overhead)")
        for line in tracing.format_table(tracer, ops, op_time):
            print(line)
        metrics = tracer.metrics(ops, op_time)
    else:
        for name, (value, unit) in e2e.items():
            print(f"{name:18s} {value:14.6f} {unit}")
        print(f"{'op_s_tail':18s} {tail_text}")
        print(f"{'op_fail_ratio':18s} {failed / ops:14.6f} ratio ({failed}/{ops})")
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

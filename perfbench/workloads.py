"""The benchmark's workloads.

Each workload is one closed loop: a single caller runs the next op when
the previous one returns.  An op drives ``segfuse.cli.main`` in-process
with arguments built from the workload seed; set-up builds the op's input
files with the same CLI in a child process.  Per-op outputs are collected
as bytes after the op's clock has stopped, and checked by ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks

#: Large scale: a Cityscapes-like 256 x 512 frame with 19 classes.  Scene
#: regions and error blobs scale with the side (32 and 16 px here, against
#: 8 and 4 at 64 x 64), so there are 8 regions and 16 blobs per side as at
#: the standard scale.  At the synth defaults (8 and 4) this size needs
#: about 8 GiB in the Voronoi step, which is a known defect.
LARGE = ["--height", "256", "--width", "512", "--classes", "19", "--teachers", "4",
         "--images", "2", "--region-scale", "32", "--blob-scale", "16"]
KAPPA = "13"
TEACHERS = [f"teacher{t:02d}.img000.pmap" for t in range(4)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; (exit code, captured stdout)."""
    from segfuse import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Robustness:
    """`segfuse experiment robustness` for one seed at the standard scale."""

    name = "robustness"
    bad_counts = [0, 1, 2, 3]
    # Start-up takes 0.15-0.22 s, swinging within seconds, so it is sampled
    # more often than the large set-ups for a steady median.
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup_argvs(self, d: str) -> list[list[str]]:
        # No input files: the driver generates its own scenes, so set-up is
        # program start-up alone (a child that imports segfuse and exits).
        return []

    def op(self) -> tuple[list[int], dict]:
        rc, out = _cli(["experiment", "robustness", "--seeds", "1",
                        "--bad-counts", ",".join(map(str, self.bad_counts)),
                        "--iterations", "120", "--seed", str(self.seed)])
        return [rc], {"robustness.csv": out.encode()}

    def collect(self, captured: dict) -> dict:
        return captured

    def check(self, outputs: dict) -> tuple[list[str], float]:
        rows = checks.parse_robustness_csv(outputs["robustness.csv"].decode())
        failures = checks.check_robustness(rows, self.seed, self.bad_counts)
        channel = [r["miou"] for r in rows if r["method"] == "channel_certainty"]
        return failures, float(np.mean(channel)) if channel else 0.0


class _Large:
    """Shared set-up and reference data of the large-scale workloads."""

    setup_repeats = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._ref = None

    def setup_argvs(self, d: str) -> list[list[str]]:
        return [["synth", *LARGE, "--seed", str(self.seed), "--outdir", d],
                ["select-policy", "random", "--classes", "19", "--teachers", "4",
                 "--seed", str(self.seed), "-o", os.path.join(d, "policy.json")]]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def teacher_paths(self) -> list[str]:
        return [self.path(t) for t in TEACHERS]

    def reference(self):
        """Independently decoded teachers, ground truth and policy (cached)."""
        if self._ref is None:
            unified = [checks.unified_labels(_read(p)) for p in self.teacher_paths()]
            gt, classes = checks.decode_lmap(_read(self.path("img000.gt.lmap")))
            with open(self.path("policy.json"), encoding="utf-8") as fh:
                assignment = json.load(fh)["assignment"]
            self._ref = unified, gt, classes, assignment
        return self._ref

    def check_channel(self, data: bytes) -> list[str]:
        unified, gt, classes, assignment = self.reference()
        fused, fused_classes = checks.decode_lmap(data)
        if fused.shape != gt.shape or fused_classes != classes:
            return ["channel-fused map has the wrong grid or class count"]
        return checks.check_channel_fusion(fused, unified, assignment)


class FuseLarge(_Large):
    """fuse-channel and fuse-pixel from four .pmap files, then eval on both."""

    name = "fuse-large"

    def op(self) -> tuple[list[int], dict]:
        teachers = self.teacher_paths()
        gt = self.path("img000.gt.lmap")
        rcs = [
            _cli(["fuse-channel", *teachers, "--policy", self.path("policy.json"),
                  "--kappa", KAPPA, "-o", self.path("channel.lmap")])[0],
            _cli(["fuse-pixel", *teachers, "-o", self.path("pixel.lmap")])[0],
        ]
        rc_c, eval_c = _cli(["eval", "--pred", self.path("channel.lmap"), "--gt", gt])
        rc_p, eval_p = _cli(["eval", "--pred", self.path("pixel.lmap"), "--gt", gt])
        return rcs + [rc_c, rc_p], {"eval-channel.json": eval_c, "eval-pixel.json": eval_p}

    def collect(self, captured: dict) -> dict:
        return {"channel.lmap": _read(self.path("channel.lmap")),
                "pixel.lmap": _read(self.path("pixel.lmap")),
                **{k: v.encode() for k, v in captured.items()}}

    def check(self, outputs: dict) -> tuple[list[str], float]:
        unified, gt, classes, _ = self.reference()
        failures = self.check_channel(outputs["channel.lmap"])
        pixel, _ = checks.decode_lmap(outputs["pixel.lmap"])
        if not np.array_equal(pixel, checks.pixel_vote(unified, classes)):
            failures.append("pixel vote differs from an independent count")
        channel, _ = checks.decode_lmap(outputs["channel.lmap"])
        expected = checks.miou(channel, gt, classes)
        reported = json.loads(outputs["eval-channel.json"])["miou"]
        if abs(reported - expected) > 1e-12:
            failures.append(f"eval mIoU {reported} differs from {expected}")
        return failures, reported


class PipelineLarge(_Large):
    """fuse-channel, then distill the student on that image's fused labels."""

    name = "pipeline-large"
    iterations = "40"

    def op(self) -> tuple[list[int], dict]:
        rc_f, _ = _cli(["fuse-channel", *self.teacher_paths(),
                        "--policy", self.path("policy.json"), "--kappa", KAPPA,
                        "-o", self.path("fused.lmap")])
        rc_d, summary = _cli(["distill", "--features", self.path("img000.features.npy"),
                              "--labels", self.path("fused.lmap"), "--seed", str(self.seed),
                              "--iterations", self.iterations, "-o", self.path("student.npz"),
                              "--probmap-out", self.path("student.pmap"),
                              "--trace-out", self.path("loss.csv")])
        return [rc_f, rc_d], {"distill.json": summary}

    def collect(self, captured: dict) -> dict:
        # An .npz carries zip timestamps, so its arrays are fingerprinted.
        with np.load(self.path("student.npz")) as model:
            params = model["weights"].tobytes() + model["bias"].tobytes()
        return {"fused.lmap": _read(self.path("fused.lmap")),
                "student.pmap": _read(self.path("student.pmap")),
                "student.params": params,
                "loss.csv": _read(self.path("loss.csv")),
                "distill.json": captured["distill.json"].encode()}

    def check(self, outputs: dict) -> tuple[list[str], float]:
        _, gt, classes, _ = self.reference()
        failures = self.check_channel(outputs["fused.lmap"])
        summary = json.loads(outputs["distill.json"])
        if not summary["final_loss"] < summary["initial_loss"]:
            failures.append("student loss did not fall")
        student = checks.decode_pmap(outputs["student.pmap"])  # raises if it does not decode
        if student.shape != gt.shape + (classes,):
            return failures + ["student .pmap has the wrong shape"], 0.0
        return failures, checks.miou(student.argmax(axis=2), gt, classes)


WORKLOADS = {w.name: w for w in (Robustness, FuseLarge, PipelineLarge)}

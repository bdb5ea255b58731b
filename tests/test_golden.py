"""Golden corpus: the CLI's integer-valued outputs over fixed inputs.

``tests/data/golden/`` holds a small ``synth`` set (32x32, 5 classes, 3
teachers, 2 images, seed 0; the feature maps are not kept), one certainty
(rho) report and one IoU report per teacher, and ``sha256.json``, the
sha256 of every output of ``cases()``.  Those outputs come from
comparisons and counts over fixed float32 inputs, so they do not depend on
the BLAS build or on numpy's SIMD ``exp``; a change to any of them is a
behaviour change, and ``sha256.json`` changes only in a change that says
why in CHANGES.md.

The inputs were made once by ``python tests/test_golden.py inputs`` (rho
needs a trained student, so it does depend on the BLAS build: never
regenerate them as part of a code change); ``python tests/test_golden.py
hashes`` rewrites ``sha256.json``.  Both need ``src`` on ``PYTHONPATH``.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from segfuse import fileio
from segfuse.cli import main
from segfuse.distill import FeatureMap, measure_teacher
from segfuse.policy import select_certainty, select_oracle

GOLDEN = Path(__file__).parent / "data" / "golden"
TEACHERS, IMAGES, CLASSES, KAPPAS = 3, 2, 5, (1, 3, 13)

# The member whose report each "-dup" policy lists twice, as
# `experiment robustness` re-adds one member: it is the member that wins
# most classes in that mode (or one of them), so its copy ties it there.
DUPLICATE = {"certainty": 0, "oracle": 2}


def _teacher(t: int, i: int) -> str:
    return f"{{in}}/teacher{t:02d}.img{i:03d}.pmap"


def _policies() -> dict[str, tuple[list[str], list[int]]]:
    """Policy name -> (select-policy argv, the members it indexes, in order)."""
    members = list(range(TEACHERS))
    out = {"random": (["random", "--classes", str(CLASSES), "--teachers",
                       str(TEACHERS), "--seed", "0"], members)}
    for mode, flag, stem in (("certainty", "--rho", "rho"), ("oracle", "--phis", "phi")):
        for dup in (False, True):
            order = members + [DUPLICATE[mode]] * dup
            reports = [f"{{in}}/{stem}{t}.json" for t in order]
            out[mode + "-dup" * dup] = ([mode, flag, *reports], order)
    return out


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv, in run order; each writes ``{out}/<name>``.
    A later case may read an earlier one's output (policies, fused maps)."""
    out = {}
    for t in range(TEACHERS):
        for i in range(IMAGES):
            out[f"unify.t{t}.i{i}"] = ["unify", _teacher(t, i)]
            out[f"unify-renormalize.t{t}.i{i}"] = ["unify", _teacher(t, i), "--renormalize"]
    fused = []
    for i in range(IMAGES):
        name = f"fuse-pixel.i{i}"
        out[name] = ["fuse-pixel", *(_teacher(t, i) for t in range(TEACHERS))]
        fused.append((name, i))
    for policy, (argv, order) in _policies().items():
        out[f"select-policy.{policy}"] = ["select-policy", *argv]
        for kappa in KAPPAS:
            for i in range(IMAGES):
                name = f"fuse-channel.{policy}.k{kappa}.i{i}"
                out[name] = ["fuse-channel", *(_teacher(t, i) for t in order),
                             "--policy", f"{{out}}/select-policy.{policy}",
                             "--kappa", str(kappa)]
                fused.append((name, i))
    for name, i in fused:
        out[f"eval.{name}"] = ["eval", "--pred", f"{{out}}/{name}",
                               "--gt", f"{{in}}/img{i:03d}.gt.lmap"]
    return out


def run_cases(inputs: Path, workdir: Path) -> dict[str, str]:
    """Run every case over ``inputs``; the sha256 of each output by name."""
    digests = {}
    for name, argv in cases().items():
        argv = [a.format(**{"in": inputs, "out": workdir}) for a in argv]
        output = workdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["-o", str(output)]) == 0, name
        digests[name] = hashlib.sha256(output.read_bytes()).hexdigest()
    return digests


def test_outputs_match_the_golden_hashes(tmp_path):
    want = json.loads((GOLDEN / "sha256.json").read_text())
    got = run_cases(GOLDEN, tmp_path)
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_synth_rebuilds_the_golden_inputs(tmp_path):
    """``synth`` at the corpus flags writes every kept input byte for byte."""
    assert main(["synth", "--height", "32", "--width", "32", "--classes",
                 str(CLASSES), "--teachers", str(TEACHERS), "--images",
                 str(IMAGES), "--seed", "0", "--outdir", str(tmp_path)]) == 0
    kept = sorted(GOLDEN.glob("*.pmap")) + sorted(GOLDEN.glob("*.gt.lmap"))
    assert len(kept) == TEACHERS * IMAGES + IMAGES
    for path in kept:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_duplicated_members_win_classes():
    """Each "-dup" policy's repeated member wins a class without its copy,
    so the copy ties it there and the tie rule shows in the policy."""
    for mode, select in (("certainty", select_certainty), ("oracle", select_oracle)):
        stem = "rho" if mode == "certainty" else "phi"
        reports = [fileio.report_from_json((GOLDEN / f"{stem}{t}.json").read_text())
                   for t in range(TEACHERS)]
        assert DUPLICATE[mode] in select(reports).assignment, mode


def make_inputs(directory: Path) -> None:
    """Write the corpus inputs: ``synth`` maps and ground truth, then one
    rho report (``measure_teacher`` on the synth features) and one IoU
    report (``eval`` of the unified image 0) per teacher."""
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert main(["synth", "--height", "32", "--width", "32", "--classes",
                     str(CLASSES), "--teachers", str(TEACHERS), "--images",
                     str(IMAGES), "--seed", "0", "--outdir", str(tmp)]) == 0
        for path in sorted(tmp.glob("*.pmap")) + sorted(tmp.glob("*.gt.lmap")):
            shutil.copyfile(path, directory / path.name)
        feats = [FeatureMap(np.load(tmp / f"img{i:03d}.features.npy"))
                 for i in range(IMAGES)]
        for t in range(TEACHERS):
            paths = [tmp / f"teacher{t:02d}.img{i:03d}.pmap" for i in range(IMAGES)]
            labels = [fileio.read_labels(fileio.read_file(str(p), fileio.MAP_BODY_OFFSET))
                      for p in paths]
            rho = measure_teacher(labels, feats)
            (directory / f"rho{t}.json").write_text(fileio.report_to_json(rho))
            unified = tmp / f"unified{t}.lmap"
            assert main(["unify", str(tmp / f"teacher{t:02d}.img000.pmap"),
                         "-o", str(unified)]) == 0
            assert main(["eval", "--pred", str(unified), "--gt",
                         str(tmp / "img000.gt.lmap"), "-o",
                         str(directory / f"phi{t}.json")]) == 0


def write_hashes() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(GOLDEN, Path(tmp))
    (GOLDEN / "sha256.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    {"inputs": lambda: make_inputs(GOLDEN), "hashes": write_hashes}[sys.argv[1]]()

"""Golden corpus: the CLI's integer-valued outputs over fixed inputs.

``tests/data/golden/`` holds a small ``synth`` set (32x32, 5 classes, 3
teachers, 2 images, seed 0; the feature maps are not kept), one certainty
(rho) report and one IoU report per teacher, and ``sha256.json``, the
sha256 of every output of ``cases()``, of ``trained_digests()`` and of
``synth_digests()``, the ``synth`` files the set does not keep.  The
outputs of ``cases()`` come from comparisons and counts over fixed float32
inputs, so they do not depend on the BLAS build or on numpy's SIMD
``exp``; a change to any of them is a behaviour change, and
``sha256.json`` changes only in a change that says why in CHANGES.md.

``trained_digests()`` pins what training decides, not its floats: the
unified labels of students distilled on fused maps.  The smallest top-2
probability gap of those students (CHANGES.md records them) is far above
the last-bit moves of summation order, so a changed label there is a
training change, not rounding.

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
SYNTH_FLAGS = ["--height", "32", "--width", "32", "--classes", str(CLASSES), "--teachers",
               str(TEACHERS), "--images", str(IMAGES), "--seed", "0"]

# The fused maps a student is distilled on, and a larger scene whose
# 128 x 256 image gives the student 4 row blocks of its training step.
STUDENT_OF = [f"fuse-channel.random.k13.i{i}" for i in range(IMAGES)]
BLOCKS_FLAGS = ["--height", "128", "--width", "256", "--classes", "5", "--teachers",
                "3", "--images", "2", "--seed", "0"]
TRAINED = [f"student.{name}" for name in STUDENT_OF] + ["student.blocks.fuse-pixel.i0"]

# The files of a `synth --underperformers 1` run at the corpus flags that
# the corpus does not keep, pinned by their sha256 as "synth.<file>".
SYNTH_PINNED = [*(f"img{i:03d}.features.npy" for i in range(IMAGES)), "manifest.json",
                *(f"under00.img{i:03d}.pmap" for i in range(IMAGES))]

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


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cases(inputs: Path, workdir: Path, names=None) -> dict[str, str]:
    """Run every case over ``inputs``, or the ``names`` ones; the sha256 of
    each output by name."""
    digests = {}
    for name, argv in cases().items():
        if names is None or name in names:
            _run(*(a.format(**{"in": inputs, "out": workdir}) for a in argv),
                 "-o", workdir / name)
            digests[name] = _sha256(workdir / name)
    return digests


def _student_labels(features: Path, labels: Path, workdir: Path, *flags) -> str:
    """The sha256 of the unified .pmap of a student distilled on ``labels``."""
    pmap, lmap = workdir / "student.pmap", workdir / "student.lmap"
    _run("distill", "--features", features, "--labels", labels, "--seed", "0", *flags,
         "-o", workdir / "student.npz", "--probmap-out", pmap)
    _run("unify", pmap, "-o", lmap)
    return _sha256(lmap)


def trained_digests(workdir: Path) -> dict[str, str]:
    """The sha256 of each ``TRAINED`` student's labels: one per fused map of
    ``STUDENT_OF``, on the features ``synth`` rebuilds at the corpus flags,
    and one on the pixel fusion of image 0 of the ``BLOCKS_FLAGS`` scene,
    trained for 100 iterations."""
    _run("synth", *SYNTH_FLAGS, "--outdir", workdir / "synth")
    run_cases(GOLDEN, workdir, ["select-policy.random", *STUDENT_OF])
    digests = {}
    for i, name in enumerate(STUDENT_OF):
        digests[f"student.{name}"] = _student_labels(
            workdir / "synth" / f"img{i:03d}.features.npy", workdir / name, workdir)
    blocks = workdir / "blocks"
    _run("synth", *BLOCKS_FLAGS, "--outdir", blocks)
    _run("fuse-pixel", *(blocks / f"teacher{t:02d}.img000.pmap" for t in range(3)),
         "-o", blocks / "fused.lmap")
    digests["student.blocks.fuse-pixel.i0"] = _student_labels(
        blocks / "img000.features.npy", blocks / "fused.lmap", blocks, "--iterations", "100")
    return digests


def synth_digests(workdir: Path) -> dict[str, str]:
    """Run ``synth`` at the corpus flags with one under-performer into
    ``workdir``; the sha256 of each ``SYNTH_PINNED`` file, by "synth.<file>"."""
    _run("synth", *SYNTH_FLAGS, "--underperformers", "1", "--outdir", workdir)
    return {f"synth.{name}": _sha256(workdir / name) for name in SYNTH_PINNED}


def test_outputs_match_the_golden_hashes(tmp_path):
    want = json.loads((GOLDEN / "sha256.json").read_text())
    got = run_cases(GOLDEN, tmp_path)
    assert list(got) + TRAINED + [f"synth.{name}" for name in SYNTH_PINNED] == list(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_trained_students_match_the_golden_hashes(tmp_path):
    want = json.loads((GOLDEN / "sha256.json").read_text())
    got = trained_digests(tmp_path)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_fresh_rho_gives_the_golden_certainty_policy(tmp_path):
    """Each teacher measured again on the features ``synth`` rebuilds gives
    the pinned certainty policy, so the rho fixtures are what training gives."""
    want = json.loads((GOLDEN / "sha256.json").read_text())
    make_inputs(tmp_path / "fresh")
    got = run_cases(tmp_path / "fresh", tmp_path, ["select-policy.certainty"])
    assert got == {"select-policy.certainty": want["select-policy.certainty"]}


def test_synth_rebuilds_the_golden_inputs(tmp_path):
    """``synth`` at the corpus flags writes every kept input byte for byte,
    and the files not kept match their pinned sha256."""
    want = json.loads((GOLDEN / "sha256.json").read_text())
    got = synth_digests(tmp_path)
    kept = sorted(GOLDEN.glob("*.pmap")) + sorted(GOLDEN.glob("*.gt.lmap"))
    assert len(kept) == TEACHERS * IMAGES + IMAGES
    for path in kept:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    assert {k: v for k, v in got.items() if v != want[k]} == {}


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
        _run("synth", *SYNTH_FLAGS, "--outdir", tmp)
        for path in sorted(tmp.glob("*.pmap")) + sorted(tmp.glob("*.gt.lmap")):
            shutil.copyfile(path, directory / path.name)
        feats = [FeatureMap(np.load(tmp / f"img{i:03d}.features.npy"))
                 for i in range(IMAGES)]
        for t in range(TEACHERS):
            paths = [tmp / f"teacher{t:02d}.img{i:03d}.pmap" for i in range(IMAGES)]
            labels = [fileio.read_labels(p.read_bytes()) for p in paths]
            rho = measure_teacher(labels, feats)
            (directory / f"rho{t}.json").write_text(fileio.report_to_json(rho))
            unified = tmp / f"unified{t}.lmap"
            assert main(["unify", str(tmp / f"teacher{t:02d}.img000.pmap"),
                         "-o", str(unified)]) == 0
            assert main(["eval", "--pred", str(unified), "--gt",
                         str(tmp / "img000.gt.lmap"), "-o",
                         str(directory / f"phi{t}.json")]) == 0


def write_hashes() -> None:
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as trained, \
            tempfile.TemporaryDirectory() as synth:
        digests = {**run_cases(GOLDEN, Path(tmp)), **trained_digests(Path(trained)),
                   **synth_digests(Path(synth))}
    (GOLDEN / "sha256.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    {"inputs": lambda: make_inputs(GOLDEN), "hashes": write_hashes}[sys.argv[1]]()

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import cli, fileio, synth, util
from segfuse.cli import build_parser, main
from segfuse.core import UNLABELED_ID, FeatureMap, IoUReport, LabelMap, ProbMap, stack_reports
from segfuse.distill import (TrainConfig, _row_blocks, measure_teacher, train_rows,
                             train_student)
from segfuse.experiments import policy_quality, robustness
from segfuse.fusion import channel_fuse, pixel_fuse
from segfuse.metrics import (
    certainty_histogram,
    certainty_iou_cosine,
    dataset_iou,
)
from segfuse.policy import select_certainty, select_oracle, select_random
from segfuse.synth import (
    UNDERPERFORMER_TEMPERATURE,
    BenchmarkConfig,
    corrupt_teacher,
    gen_ground_truth,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from segfuse.unify import unify
from segfuse.util import rows_to_csv

from helpers import (npy_bytes, random_labelmap, read_probmap, reports_from_matrix,
                     student_map, write_probmap)


def _write_in_pieces(path, data: bytes, piece: int) -> None:
    """Write ``data`` to ``path`` in writes of ``piece`` bytes, each flushed."""
    with open(path, "wb") as fh:
        for i in range(0, len(data), piece):
            fh.write(data[i : i + piece])
            fh.flush()


def _distill_argv(features, labels, out) -> list[str]:
    """``distill`` of ``features`` on ``labels``, its three outputs in ``out``."""
    return ["distill", "--features", str(features), "--labels", str(labels), "--seed", "3",
            "--iterations", "3", "-o", str(out / "m.npz"),
            "--probmap-out", str(out / "s.pmap"), "--trace-out", str(out / "t.csv")]


def _distill_outputs(out) -> dict:
    """The outputs of ``_distill_argv`` in ``out``; the model's arrays, not
    its .npz, whose zip entries carry timestamps."""
    with np.load(out / "m.npz") as model:
        params = model["weights"].tobytes() + model["bias"].tobytes()
    return {"params": params, "pmap": (out / "s.pmap").read_bytes(),
            "trace": (out / "t.csv").read_bytes()}


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _write_columns(directory, stem, scores):
    """One report file per column of a |C| x |T| score array; their paths in order."""
    files = []
    for t, report in enumerate(reports_from_matrix(scores)):
        path = directory / f"{stem}{t}.json"
        path.write_text(fileio.report_to_json(report))
        files.append(str(path))
    return files


@pytest.fixture
def scene(tmp_path):
    gt, feats = gen_ground_truth(16, 16, 4, region_scale=4, seed=0)
    teachers = [
        soften(corrupt_teacher(gt, [0.1] * 4, seed=i), temp)
        for i, temp in enumerate((0.5, 1.0, 2.0))
    ]
    paths = {}
    paths["gt"] = tmp_path / "gt.lmap"
    paths["gt"].write_bytes(fileio.write_labelmap(gt))
    paths["feats"] = tmp_path / "feats.npy"
    np.save(paths["feats"], feats.values)
    for i, t in enumerate(teachers):
        p = tmp_path / f"t{i}.pmap"
        p.write_bytes(write_probmap(t))
        paths[f"t{i}"] = p
    return tmp_path, gt, feats, teachers, paths


def _unlabeled_runs(directory):
    """(features path, labels path, features, labels) of a 136 x 128 image
    of 4 features: two row blocks and, at 512 KB chunks, two .npy chunks,
    whose ground truth has a run of unlabeled pixels across each chunk
    boundary and row-block cut, and scattered unlabeled pixels besides."""
    gt, feats = gen_ground_truth(136, 128, 4, region_scale=16, seed=1)
    ids = gt.values.reshape(-1).copy()
    ids[np.random.default_rng(2).random(len(ids)) < 0.02] = UNLABELED_ID
    chunk = util._BLOCK_BYTES // (4 * 8)
    for cut in [*range(chunk, len(ids), chunk), *(b.start for b in _row_blocks(len(ids))[1:])]:
        ids[cut - 100 : cut + 100] = UNLABELED_ID
    labels = LabelMap(ids.reshape(gt.values.shape), 4)
    paths = directory / "runs.npy", directory / "runs.lmap"
    np.save(paths[0], feats.values)
    paths[1].write_bytes(fileio.write_labelmap(labels))
    return *paths, feats, labels


class TestWrapperFidelity:
    def test_unify_matches_library(self, scene):
        tmp, gt, feats, teachers, paths = scene
        out = tmp / "u.lmap"
        assert main(["unify", str(paths["t0"]), "-o", str(out)]) == 0
        got = fileio.read_labelmap(out.read_bytes())
        np.testing.assert_array_equal(got.values, unify(teachers[0]).values)

    def test_fuse_pixel_matches_library(self, scene):
        tmp, gt, feats, teachers, paths = scene
        out = tmp / "fused.lmap"
        args = ["fuse-pixel"] + [str(paths[f"t{i}"]) for i in range(3)]
        assert main(args + ["-o", str(out)]) == 0
        got = fileio.read_labelmap(out.read_bytes())
        want = pixel_fuse([unify(t) for t in teachers])
        np.testing.assert_array_equal(got.values, want.values)

    def test_fuse_channel_matches_library(self, scene):
        tmp, gt, feats, teachers, paths = scene
        policy = select_random(4, 3, seed=5)
        ppath = tmp / "p.json"
        ppath.write_text(fileio.policy_to_json(policy))
        out = tmp / "fused.lmap"
        args = ["fuse-channel", "--policy", str(ppath), "--kappa", "5"]
        args += [str(paths[f"t{i}"]) for i in range(3)] + ["-o", str(out)]
        assert main(args) == 0
        got = fileio.read_labelmap(out.read_bytes())
        want = channel_fuse([unify(t) for t in teachers], policy, 5)
        np.testing.assert_array_equal(got.values, want.values)

    def test_eval_matches_library(self, scene, capsys):
        tmp, gt, feats, teachers, paths = scene
        pred = tmp / "pred.lmap"
        pred.write_bytes(fileio.write_labelmap(unify(teachers[0])))
        assert main(["eval", "--pred", str(pred), "--gt", str(paths["gt"])]) == 0
        got = json.loads(capsys.readouterr().out)
        want = dataset_iou([unify(teachers[0])], [gt])
        assert got["miou"] == pytest.approx(want.miou)

    def test_select_policy_random_matches_library(self, capsys):
        assert main(
            ["select-policy", "random", "--classes", "6", "--teachers", "3", "--seed", "9"]
        ) == 0
        got = fileio.policy_from_json(capsys.readouterr().out)
        want = select_random(6, 3, seed=9)
        np.testing.assert_array_equal(got.assignment, want.assignment)

    def test_select_policy_certainty_matches_argmax(self, tmp_path, capsys):
        rho = np.array([[0.2, 0.9], [0.8, 0.1], [0.5, 0.6]])
        files = _write_columns(tmp_path, "rho", rho)
        assert main(["select-policy", "certainty", "--rho"] + files) == 0
        got = fileio.policy_from_json(capsys.readouterr().out)
        want = select_certainty(reports_from_matrix(rho))
        np.testing.assert_array_equal(got.assignment, want.assignment)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_select_policy_certainty_from_protocol_columns(self, tmp_path, capsys, seed):
        bench = make_benchmark(BenchmarkConfig(), seed)
        members = bench.teacher_labels
        tc = TrainConfig(iterations=60)
        rhos = [measure_teacher(m, bench.feats, config=tc) for m in members]
        files = _write_columns(tmp_path, "rho", stack_reports(rhos))
        back = stack_reports([fileio.report_from_json(Path(f).read_text()) for f in files])
        np.testing.assert_array_equal(back, stack_reports(rhos))  # NaN cells included
        assert main(["select-policy", "certainty", "--rho"] + files) == 0
        got = fileio.policy_from_json(capsys.readouterr().out)
        np.testing.assert_array_equal(got.assignment, select_certainty(rhos).assignment)

    @pytest.mark.parametrize("mode, flag", [("certainty", "--rho"), ("oracle", "--phis")])
    def test_select_policy_class_count_mismatch(self, tmp_path, capsys, mode, flag):
        files = _write_columns(tmp_path, "a", np.full((3, 1), 0.5))
        files += _write_columns(tmp_path, "b", np.full((2, 1), 0.5))
        assert main(["select-policy", mode, flag] + files) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == "teacher reports disagree on class count: [2, 3]"

    @pytest.mark.parametrize("mode, flag, select", [
        ("certainty", "--rho", select_certainty), ("oracle", "--phis", select_oracle)])
    def test_select_policy_undefined_class_warns_in_one_json_line(
        self, tmp_path, mode, flag, select
    ):
        scores = np.array([[0.2, 0.9], [np.nan, np.nan], [0.5, 0.6]])
        files = _write_columns(tmp_path, "s", scores)
        rc, out, err = _in_process_main(["select-policy", mode, flag, *files])
        assert rc == 0
        with pytest.warns(UserWarning):
            want = fileio.policy_to_json(select(reports_from_matrix(scores)))
        assert out == want + "\n"
        lines = err.splitlines()
        assert len(lines) == 1
        warning = json.loads(lines[0])
        assert list(warning) == ["warning"]
        assert "undefined for classes [1]" in warning["warning"]

    def test_experiment_undefined_class_warns_in_one_json_line(self):
        # every command reports a warning as select-policy does
        argv = ["experiment", "robustness", "--seed", "399", "--height", "12", "--width",
                "12", "--classes", "3", "--teachers", "2", "--images", "2",
                "--region-scale", "4", "--bad-counts", "0,1", "--seeds", "1",
                "--iterations", "3"]
        rc, out, err = _in_process_main(argv)
        assert rc == 0
        config = BenchmarkConfig(height=12, width=12, classes=3, num_teachers=2,
                                 images=2, region_scale=4)
        with pytest.warns(UserWarning):
            want = robustness(config, [0, 1], 399, 1, TrainConfig(iterations=3, seed=399))
        assert out == rows_to_csv(*want)
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "warning": "student certainty undefined for classes [2]; assigning teacher 0"}

    def test_select_policy_oracle_from_reports(self, tmp_path, capsys):
        phi = np.array([[0.9, 0.1], [0.2, 0.8]])
        files = _write_columns(tmp_path, "phi", phi)
        assert main(["select-policy", "oracle", "--phis"] + files) == 0
        got = fileio.policy_from_json(capsys.readouterr().out)
        assert got.assignment.tolist() == [0, 1]

    def test_distill_matches_library(self, scene, tmp_path, capsys):
        tmp, gt, feats, teachers, paths = scene
        model_out = tmp_path / "model.npz"
        trace_out = tmp_path / "trace.csv"
        probmap_out = tmp_path / "student.pmap"
        # the ground truth has no unlabeled pixel; the second input's
        # unlabeled and labeled runs read on across .npy pieces and blocks
        inputs = [(paths["feats"], paths["gt"], feats, gt), _unlabeled_runs(tmp_path)]
        for (feats_path, labels_path, feats, labels), (flags, config) in itertools.product(
                inputs, [([], TrainConfig(seed=4)),
                         (["--iterations", "30"], TrainConfig(iterations=30, seed=4))]):
            args = [
                "distill", "--features", str(feats_path), "--labels", str(labels_path),
                "--seed", "4", *flags, "-o", str(model_out), "--trace-out", str(trace_out),
                "--probmap-out", str(probmap_out),
            ]
            assert main(args) == 0
            want = train_student(feats, labels, config)
            saved = np.load(model_out)
            np.testing.assert_array_equal(saved["weights"], want.model.weights)
            np.testing.assert_array_equal(saved["bias"], want.model.bias)
            assert probmap_out.read_bytes() == write_probmap(
                student_map(want.model, feats))
            want_trace = ["iter,loss"] + [
                f"{i},{float(v)!r}" for i, v in enumerate(want.losses)]
            assert trace_out.read_text().splitlines() == want_trace
            summary = json.loads(capsys.readouterr().out)
            assert summary["final_loss"] == pytest.approx(float(want.losses[-1]))

    @pytest.mark.parametrize("unwritable", ["m.npz", "s.pmap", "t.csv"])
    def test_distill_leaves_no_partial_output(self, scene, capsys, unwritable):
        tmp, gt, feats, teachers, paths = scene
        out = tmp / "out"
        out.mkdir()
        argv = _distill_argv(paths["feats"], paths["gt"], out)
        bad = str(tmp / "missing" / unwritable)
        argv[argv.index(str(out / unwritable))] = bad
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"].endswith(f": '{bad}'")
        assert list(out.iterdir()) == []
        assert not list(tmp.glob(".segfuse-*"))

    @pytest.mark.parametrize("flag, alias", [("--trace-out", "m.npz"),
                                             ("--probmap-out", "./m.npz")])
    def test_distill_refuses_two_outputs_of_one_file(self, scene, capsys, monkeypatch,
                                                       flag, alias):
        # the later output replaced the model, and distill exited 0
        tmp, gt, feats, teachers, paths = scene
        out = tmp / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        argv = _distill_argv(paths["feats"], paths["gt"], out)
        argv[argv.index(flag) + 1] = alias
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"{alias}: names the same file as another output")
        assert list(out.iterdir()) == []

    def test_distill_probmap_peak_grows_by_about_the_extra_features(self, tmp_path):
        # the float64 feature rows are held once; the rest does not grow
        # with the map (at the parent, a float64 map and the encoded .pmap
        # came on top of the rows)
        peaks, feature_bytes = {}, {}
        for h, w in [(128, 256), (256, 512)]:
            rng = np.random.default_rng(h)
            values = rng.normal(size=(h, w, 19))
            np.save(tmp_path / "f.npy", values)
            feature_bytes[h] = values.nbytes
            del values
            labels = random_labelmap(rng, h, w, 19, 0.1)
            (tmp_path / "l.lmap").write_bytes(fileio.write_labelmap(labels))
            argv = ["distill", "--features", str(tmp_path / "f.npy"), "--labels",
                    str(tmp_path / "l.lmap"), "--seed", "0", "--iterations", "1",
                    "-o", str(tmp_path / "m.npz"), "--probmap-out", str(tmp_path / "s.pmap")]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[256] - peaks[128] <= 1.2 * (feature_bytes[256] - feature_bytes[128])

    def test_distill_has_one_flag_per_training_field(self):
        actions = _subcommands(build_parser())["distill"]._actions
        for field in fields(TrainConfig):
            flags = [a for a in actions if a.dest == field.name]
            assert len(flags) == 1, field.name
            if field.name == "seed":  # the one required flag
                assert flags[0].required and flags[0].type is cli._seed
            else:
                assert flags[0].type is cli._int, field.name
                assert flags[0].default == field.default, field.name

    def test_synth_has_one_flag_per_benchmark_field(self):
        actions = _subcommands(build_parser())["synth"]._actions
        dests = {field: flag.replace("-", "_") for flag, field in cli._BENCH_FLAGS.items()}
        for field in fields(BenchmarkConfig):
            flags = [a for a in actions if a.dest == dests.get(field.name)]
            assert len(flags) == 1, field.name
            assert flags[0].type is cli._int, field.name
            assert flags[0].default == field.default, field.name


class TestRenormalize:
    """--renormalize reads a .pmap body as logits: the labels are their argmax."""

    @pytest.fixture
    def logits(self, tmp_path):
        """Three logit .pmap files, their paths and their argmax label maps."""
        rng = np.random.default_rng(0)
        paths, unified = [], []
        for t in range(3):
            body = rng.normal(0.0, 3.0, size=(8, 12, 4)).astype("<f4")
            data = fileio._HEADER.pack(b"PMAP", 1, 8, 12, 4) + body.tobytes()
            path = tmp_path / f"logits{t}.pmap"
            path.write_bytes(data)
            paths.append(str(path))
            unified.append(LabelMap(np.argmax(body.astype(np.float64), axis=2), 4))
        policy = tmp_path / "p.json"
        policy.write_text(fileio.policy_to_json(select_random(4, 3, seed=1)))
        return paths, unified, str(policy)

    @staticmethod
    def argv(command, paths, policy):
        if command == "unify":
            return ["unify", paths[0]]
        if command == "fuse-pixel":
            return ["fuse-pixel", *paths]
        return ["fuse-channel", *paths, "--policy", policy, "--kappa", "5"]

    @pytest.mark.parametrize("command", ["unify", "fuse-pixel", "fuse-channel"])
    def test_matches_library(self, tmp_path, logits, command):
        paths, unified, policy = logits
        out = tmp_path / "out.lmap"
        argv = self.argv(command, paths, policy) + ["-o", str(out)]
        _run_rejected(tmp_path, argv)  # the logits are not probabilities
        assert main(argv + ["--renormalize"]) == 0
        want = {
            "unify": unified[0],
            "fuse-pixel": pixel_fuse(unified),
            "fuse-channel": channel_fuse(unified, select_random(4, 3, seed=1), 5),
        }[command]
        got = fileio.read_labelmap(out.read_bytes())
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("command", ["unify", "fuse-pixel", "fuse-channel"])
    def test_non_finite_logit_exits_2(self, tmp_path, logits, command):
        paths, unified, policy = logits
        data = bytearray(Path(paths[0]).read_bytes())
        data[-4:] = struct.pack("<f", float("inf"))
        (tmp_path / "logits0.pmap").write_bytes(data)
        argv = self.argv(command, paths, policy) + ["-o", str(tmp_path / "out.lmap")]
        _run_rejected(tmp_path, argv + ["--renormalize"])

    @pytest.mark.parametrize("logits, want", [
        # exp(-1e-30) == exp(0) in float64: a softmax would tie them at 0.5.
        ((-1e-30, 0.0), 1),
        ((2.5, 2.5), 0),
    ], ids=["exp-rounding-tie", "equal-logits"])
    def test_labels_follow_the_logits_order(self, tmp_path, logits, want):
        path = tmp_path / "l.pmap"
        path.write_bytes(fileio._HEADER.pack(b"PMAP", 1, 1, 1, 2) + struct.pack("<2f", *logits))
        out = tmp_path / "out.lmap"
        assert main(["unify", str(path), "--renormalize", "-o", str(out)]) == 0
        assert fileio.read_labelmap(out.read_bytes()).values.tolist() == [[want]]


class TestLabelRoute:
    """Every .pmap is decoded straight to labels by one fileio.read_labels
    call, which takes the body as logits under --renormalize."""

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("command", ["unify", "fuse-pixel", "fuse-channel"])
    def test_decoder_calls_and_output(self, scene, monkeypatch, command, renormalize):
        tmp, gt, feats, teachers, paths = scene
        pmaps = [str(paths[f"t{i}"]) for i in range(1 if command == "unify" else 3)]
        policy = select_random(4, 3, seed=5)
        (tmp / "p.json").write_text(fileio.policy_to_json(policy))
        # probabilities read as logits have the same argmax
        decoded = [unify(read_probmap(Path(p).read_bytes())) for p in pmaps]
        if command == "unify":
            want = decoded[0]
        elif command == "fuse-pixel":
            want = pixel_fuse(decoded)
        else:
            want = channel_fuse(decoded, policy, 5)

        calls = []

        def counting(data, *args, _decode=fileio.read_labels):
            calls.append(args)
            return _decode(data, *args)

        monkeypatch.setattr(fileio, "read_labels", counting)
        argv = [command, *pmaps, "-o", str(tmp / "out.lmap")]
        if command == "fuse-channel":
            argv += ["--policy", str(tmp / "p.json"), "--kappa", "5"]
        assert main(argv + (["--renormalize"] if renormalize else [])) == 0
        assert calls == [(renormalize,)] * len(pmaps)
        assert (tmp / "out.lmap").read_bytes() == fileio.write_labelmap(want)


class TestReadImages:
    """``cli._read_images`` reads (feature path, LabelMap) pairs into one
    training builder, and into the images ``student_blocks`` reads."""

    def test_pairs_are_one_builder_and_their_images(self, tmp_path):
        bench = make_benchmark(BenchmarkConfig(images=3), 0)
        rng = np.random.default_rng(0)
        pairs = []
        for i, (f, l) in enumerate(zip(bench.feats, bench.teacher_labels[0])):
            ids = l.values.copy()
            # image 0 as a measurement image: no pixel labeled
            ids[(rng.random(ids.shape) < 0.15) | (i == 0)] = UNLABELED_ID
            np.save(tmp_path / f"f{i}.npy", f.values)
            pairs.append((str(tmp_path / f"f{i}.npy"), LabelMap(ids, l.num_classes)))
        x, images = cli._read_images(pairs)
        assert len(images) == 3
        for (labeled, pieces), f, (_, l) in zip(images, bench.feats, pairs):
            mask = l.values.reshape(-1) != UNLABELED_ID
            assert np.array_equal(labeled, mask)
            unlabeled = np.concatenate(pieces, axis=1).T
            assert np.array_equal(unlabeled, f.values.reshape(-1, f.dims)[~mask])
        config = TrainConfig(iterations=20, seed=3)
        got = train_rows(x.done(), config)
        want = train_student(bench.feats, [l for _, l in pairs], config)
        assert np.array_equal(got.model.weights, want.model.weights)
        assert np.array_equal(got.model.bias, want.model.bias)
        assert np.array_equal(got.losses, want.losses)

    def test_a_bad_file_is_named(self, tmp_path):
        gt, feats = gen_ground_truth(8, 8, 3, seed=0)
        np.save(tmp_path / "good.npy", feats.values)
        np.save(tmp_path / "small.npy", feats.values[:4])
        pairs = [(str(tmp_path / name), gt) for name in ("good.npy", "small.npy")]
        with pytest.raises(ValueError, match="^" + re.escape(f"{tmp_path / 'small.npy'}: feature and label")):
            cli._read_images(pairs)


class TestFileReads:
    """A .pmap or a .npy streams through one reused chunk buffer; the
    other inputs are read whole.  Each reads through a FIFO, however short
    its reads come back, as through a file."""

    def test_pmap_body_streams_through_one_aligned_chunk(self, tmp_path, monkeypatch):
        # height x 256 x 4 float32 is two whole chunks and a part of one more
        height = 2 * util._BLOCK_BYTES // (256 * 4 * 4) + 2
        pm = ProbMap(np.full((height, 256, 4), 0.25))
        (tmp_path / "t.pmap").write_bytes(write_probmap(pm))
        seen = []

        class Recording(fileio.ProbabilityCheck):
            def add(self, v):
                seen.append((v.ctypes.data, v.nbytes, v.flags.aligned))
                super().add(v)

        monkeypatch.setattr(fileio, "ProbabilityCheck", Recording)
        assert main(["unify", str(tmp_path / "t.pmap"), "-o", str(tmp_path / "u.lmap")]) == 0
        assert len(seen) == 3 and len({start for start, _, _ in seen}) == 1
        assert all(aligned and size <= util._BLOCK_BYTES for _, size, aligned in seen)
        assert sum(size for _, size, _ in seen) == pm.values.size * 4
        got = fileio.read_labelmap((tmp_path / "u.lmap").read_bytes())
        np.testing.assert_array_equal(got.values, unify(pm).values)

    def test_npy_body_streams_through_one_aligned_chunk(self, tmp_path, monkeypatch):
        # height x 256 x 4 float64 is four whole chunks and a part of one more
        height = 4 * util._BLOCK_BYTES // (256 * 4 * 8) + 2
        rng = np.random.default_rng(0)
        values = rng.normal(size=(height, 256, 4))
        labels = random_labelmap(rng, height, 256, 3, 0.1)
        np.save(tmp_path / "f.npy", values)
        (tmp_path / "l.lmap").write_bytes(fileio.write_labelmap(labels))
        seen = []

        def recording(v, _check=fileio._all_finite):
            seen.append((v.ctypes.data, v.nbytes, v.flags.aligned))
            return _check(v)

        monkeypatch.setattr(fileio, "_all_finite", recording)
        assert main(["distill", "--features", str(tmp_path / "f.npy"), "--labels",
                     str(tmp_path / "l.lmap"), "--iterations", "2", "--seed", "0",
                     "-o", str(tmp_path / "m.npz")]) == 0
        assert len(seen) == 5 and len({start for start, _, _ in seen}) == 1
        assert all(aligned and size <= util._BLOCK_BYTES for _, size, aligned in seen)
        assert sum(size for _, size, _ in seen) == values.nbytes
        want = train_student(FeatureMap(values), labels, TrainConfig(iterations=2, seed=0))
        with np.load(tmp_path / "m.npz") as model:
            assert np.array_equal(model["weights"], want.model.weights)
            assert np.array_equal(model["bias"], want.model.bias)

    @pytest.mark.parametrize("piece", [None, 1000], ids=["whole", "1000-byte-writes"])
    def test_fifo_features_give_the_file_outputs(self, tmp_path, piece):
        # 96 x 512 x 4 float64 is three chunks
        gt, feats = gen_ground_truth(96, 512, 4, region_scale=16, seed=0)
        np.save(tmp_path / "f.npy", feats.values)
        (tmp_path / "gt.lmap").write_bytes(fileio.write_labelmap(gt))
        for out in ("a", "b"):
            (tmp_path / out).mkdir()
        assert main(_distill_argv(tmp_path / "f.npy", tmp_path / "gt.lmap", tmp_path / "a")) == 0
        fifo = tmp_path / "fifo.npy"
        argv = _distill_argv(fifo, tmp_path / "gt.lmap", tmp_path / "b")
        data = (tmp_path / "f.npy").read_bytes()
        assert self.main_through_fifo(fifo, data, argv, piece) == 0
        assert _distill_outputs(tmp_path / "b") == _distill_outputs(tmp_path / "a")

    def test_fortran_order_features_give_the_same_outputs(self, scene, tmp_path):
        # read whole, as one chunk: a Fortran-order body has no pixel rows
        tmp, gt, feats, teachers, paths = scene
        np.save(tmp / "f.npy", np.asfortranarray(feats.values))
        assert b"'fortran_order': True" in (tmp / "f.npy").read_bytes()[:128]
        for out, features in (("a", paths["feats"]), ("b", tmp / "f.npy")):
            (tmp / out).mkdir()
            assert main(_distill_argv(features, paths["gt"], tmp / out)) == 0
        assert _distill_outputs(tmp / "b") == _distill_outputs(tmp / "a")

    @staticmethod
    def main_through_fifo(fifo, data, argv, piece=None) -> int:
        """``main(argv)`` while a thread writes ``data`` into the new FIFO
        ``fifo``: at once, or in writes of ``piece`` bytes, so that reads
        from it come back short."""
        os.mkfifo(fifo)
        writer = threading.Thread(target=_write_in_pieces,
                                  args=(fifo, data, piece or len(data) or 1), daemon=True)
        writer.start()
        try:
            rc = main(argv)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        return rc

    @staticmethod
    def fuse_argv(command, tmp, others):
        """The arguments after the first input, up to ``-o``, of ``command``."""
        if command != "fuse-channel":
            return others
        (tmp / "p.json").write_text(fileio.policy_to_json(select_random(4, 3, seed=5)))
        return [*others, "--policy", str(tmp / "p.json"), "--kappa", "5"]

    @pytest.mark.parametrize("command", ["unify", "fuse-pixel", "fuse-channel"])
    def test_fifo_input_gives_the_file_output(self, scene, command):
        tmp, gt, feats, teachers, paths = scene
        others = [] if command == "unify" else [str(paths["t1"]), str(paths["t2"])]
        rest = self.fuse_argv(command, tmp, others)
        assert main([command, str(paths["t0"]), *rest, "-o", str(tmp / "a.lmap")]) == 0
        fifo = tmp / "fifo.pmap"
        argv = [command, str(fifo), *rest, "-o", str(tmp / "b.lmap")]
        assert self.main_through_fifo(fifo, paths["t0"].read_bytes(), argv) == 0
        assert (tmp / "b.lmap").read_bytes() == (tmp / "a.lmap").read_bytes()

    @pytest.mark.parametrize("command", ["unify", "fuse-pixel", "fuse-channel"])
    def test_fifo_written_in_short_pieces_gives_the_file_output(self, tmp_path, command):
        # 96 x 512 x 4 float32 is a chunk and a half, written 1,000 bytes at a time
        gt, _ = gen_ground_truth(96, 512, 4, region_scale=16, seed=0)
        paths = []
        for i in range(3):
            paths.append(tmp_path / f"t{i}.pmap")
            pm = soften(corrupt_teacher(gt, [0.1] * 4, seed=i), 1.0)
            paths[-1].write_bytes(write_probmap(pm))
        rest = self.fuse_argv(command, tmp_path,
                              [] if command == "unify" else [str(p) for p in paths[1:]])
        assert main([command, str(paths[0]), *rest, "-o", str(tmp_path / "a.lmap")]) == 0
        fifo = tmp_path / "fifo.pmap"
        argv = [command, str(fifo), *rest, "-o", str(tmp_path / "b.lmap")]
        assert self.main_through_fifo(fifo, paths[0].read_bytes(), argv, piece=1000) == 0
        assert (tmp_path / "b.lmap").read_bytes() == (tmp_path / "a.lmap").read_bytes()

    @pytest.mark.parametrize("route", ["fifo", "upper-case"])
    @pytest.mark.parametrize("command", ["fuse-pixel", "fuse-channel"])
    def test_lmap_input_is_known_by_its_magic(self, scene, command, route):
        # a .lmap read as a .pmap would fail on its magic
        tmp, gt, feats, teachers, paths = scene
        lmap = tmp / "t0.lmap"
        assert main(["unify", str(paths["t0"]), "-o", str(lmap)]) == 0
        (tmp / "p.json").write_text(fileio.policy_to_json(select_random(4, 3, seed=5)))
        rest = [str(paths["t1"]), str(paths["t2"])]
        if command == "fuse-channel":
            rest += ["--policy", str(tmp / "p.json"), "--kappa", "5"]
        assert main([command, str(lmap), *rest, "-o", str(tmp / "a.lmap")]) == 0
        if route == "fifo":
            fifo = tmp / "labels"
            argv = [command, str(fifo), *rest, "-o", str(tmp / "b.lmap")]
            assert self.main_through_fifo(fifo, lmap.read_bytes(), argv) == 0
        else:
            (tmp / "t0.LMAP").write_bytes(lmap.read_bytes())
            assert main([command, str(tmp / "t0.LMAP"), *rest, "-o", str(tmp / "b.lmap")]) == 0
        assert (tmp / "b.lmap").read_bytes() == (tmp / "a.lmap").read_bytes()

    @pytest.mark.parametrize("renormalize", [[], ["--renormalize"]], ids=["probs", "logits"])
    def test_unify_of_an_lmap_writes_its_bytes(self, tmp_path, renormalize):
        lmap = tmp_path / "in.lmap"
        lmap.write_bytes(fileio.write_labelmap(random_labelmap(np.random.default_rng(0),
                                                               9, 7, 5)))
        assert main(["unify", str(lmap), *renormalize, "-o", str(tmp_path / "u.lmap")]) == 0
        assert (tmp_path / "u.lmap").read_bytes() == lmap.read_bytes()

    @pytest.mark.parametrize("flag", ["--pred", "--gt", "--labels", "--policy", "--rho"])
    def test_fifo_lmap_and_json_inputs_give_the_file_output(self, tmp_path, flag):
        # every input passes 1,000 bytes, so that reads from the FIFO come
        # back short; JSON may end in any whitespace
        gt, feats = gen_ground_truth(96, 512, 4, region_scale=16, seed=0)
        pred = corrupt_teacher(gt, [0.1] * 4, seed=0)
        np.save(tmp_path / "f.npy", feats.values)
        (tmp_path / "t.pmap").write_bytes(write_probmap(soften(pred, 1.0)))
        pad = b" " * 1000
        files = {"gt.lmap": fileio.write_labelmap(gt), "pred.lmap": fileio.write_labelmap(pred),
                 "p.json": fileio.policy_to_json(select_random(4, 2, seed=5)).encode() + pad}
        for t, scores in enumerate(([0.9, 0.2, 0.7, 0.4], [0.3, 0.8, 0.5, 0.6])):
            files[f"rho{t}.json"] = fileio.report_to_json(IoUReport(np.array(scores))).encode()
        files["rho0.json"] += pad
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        path = {name: str(tmp_path / name) for name in files}
        name = {"--pred": "pred.lmap", "--gt": "gt.lmap", "--labels": "gt.lmap",
                "--policy": "p.json", "--rho": "rho0.json"}[flag]

        def argv(source, out):
            """``flag``'s command with ``source`` as that input, its outputs in ``out``."""
            out.mkdir()
            return {
                "--pred": ["eval", "--pred", source, "--gt", path["gt.lmap"],
                           "-o", str(out / "r")],
                "--gt": ["eval", "--pred", path["pred.lmap"], "--gt", source,
                         "-o", str(out / "r")],
                "--labels": _distill_argv(tmp_path / "f.npy", source, out),
                "--policy": ["fuse-channel", str(tmp_path / "t.pmap"), path["gt.lmap"],
                             "--policy", source, "-o", str(out / "r")],
                "--rho": ["select-policy", "certainty", "--rho", source, path["rho1.json"],
                          "-o", str(out / "r")],
            }[flag]

        assert main(argv(path[name], tmp_path / "a")) == 0
        fifo = tmp_path / "fifo"
        assert self.main_through_fifo(fifo, files[name], argv(str(fifo), tmp_path / "b"),
                                      piece=1000) == 0
        if flag == "--labels":
            assert _distill_outputs(tmp_path / "b") == _distill_outputs(tmp_path / "a")
        else:
            assert (tmp_path / "b" / "r").read_bytes() == (tmp_path / "a" / "r").read_bytes()

    @pytest.mark.parametrize("name", ["t0.lmap", "t0.pmap"])
    def test_other_magic_is_refused_as_not_a_pmap(self, scene, name):
        tmp, gt, feats, teachers, paths = scene
        data = fileio.write_labelmap(gt)
        (tmp / name).write_bytes(b"XMAP" + data[4:])
        err = _run_rejected(tmp, ["fuse-pixel", str(tmp / name), str(paths["t1"]),
                                  "-o", str(tmp / "out.lmap")])
        assert err == f"{tmp / name}: bad magic b'XMAP', expected b'PMAP'"


def _subprocess_main(argv):
    """(exit code, stdout, stderr) of ``python -m segfuse`` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "segfuse", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _in_process_main(argv):
    """(exit code, stdout, stderr) of ``main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _member_files(directory, count):
    """``count`` members of one image of 256 columns and 5 classes, each
    .pmap body two whole chunks and a part, so that two readers overlap:
    paths t0, t1, ..., every third a .lmap."""
    height = 2 * util._BLOCK_BYTES // (256 * 5 * 4) + 2
    gt, _ = gen_ground_truth(height, 256, 5, region_scale=16, seed=0)
    paths = []
    for i in range(count):
        pm = soften(corrupt_teacher(gt, [0.2] * 5, seed=i), 0.5 + i / 4)
        if i % 3 == 2:
            paths.append(directory / f"t{i}.lmap")
            paths[-1].write_bytes(fileio.write_labelmap(unify(pm)))
        else:
            paths.append(directory / f"t{i}.pmap")
            paths[-1].write_bytes(write_probmap(pm))
    return paths


def _on_cores(monkeypatch, cores):
    """Make ``cores`` cores visible to the process, as ``_read_members`` counts them."""
    monkeypatch.setattr(util, "cores", lambda: cores)


class TestMemberReads:
    """``fuse-pixel`` and ``fuse-channel`` read their members on one thread
    per core: the outputs and errors are those of one reader, and every
    thread is joined before the command returns."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("command", ["fuse-pixel", "fuse-channel"])
    def test_outputs_do_not_depend_on_the_reader_count(self, tmp_path, monkeypatch, command,
                                                       count):
        paths = _member_files(tmp_path, count)
        fifo_member = count // 2  # a FIFO, fed by a thread of its own
        policy = select_random(5, count, seed=3)
        (tmp_path / "p.json").write_text(fileio.policy_to_json(policy))
        readers, read_labels = set(), fileio.read_labels

        def spying(data, *args):
            readers.add(threading.get_ident())
            return read_labels(data, *args)

        monkeypatch.setattr(fileio, "read_labels", spying)
        outputs = []
        for cores in (1, 2):
            _on_cores(monkeypatch, cores)
            readers.clear()
            fifo = tmp_path / f"fifo{cores}"
            inputs = [str(fifo if i == fifo_member else p) for i, p in enumerate(paths)]
            argv = [command, *inputs, "-o", str(tmp_path / f"out{cores}.lmap")]
            if command == "fuse-channel":
                argv += ["--policy", str(tmp_path / "p.json"), "--kappa", "5"]
            data = paths[fifo_member].read_bytes()
            assert TestFileReads.main_through_fifo(fifo, data, argv) == 0
            assert len(readers) == min(cores, count)
            outputs.append((tmp_path / f"out{cores}.lmap").read_bytes())
        maps = [read_labels(p.read_bytes()) for p in paths]
        want = pixel_fuse(maps) if command == "fuse-pixel" else channel_fuse(maps, policy, 5)
        assert outputs == [fileio.write_labelmap(want)] * 2

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("command", ["fuse-pixel", "fuse-channel"])
    def test_the_first_malformed_member_is_named(self, tmp_path, monkeypatch, command, cores):
        paths = _member_files(tmp_path, 5)
        paths[1].write_bytes(paths[1].read_bytes()[:-4])  # a short body
        paths[3].write_bytes(b"XMAP" + paths[3].read_bytes()[4:])  # a bad magic
        (tmp_path / "p.json").write_text(fileio.policy_to_json(select_random(5, 5, seed=3)))
        _on_cores(monkeypatch, cores)
        argv = [command, *map(str, paths), "-o", str(tmp_path / "out.lmap")]
        if command == "fuse-channel":
            argv += ["--policy", str(tmp_path / "p.json")]
        err = _run_rejected(tmp_path, argv)
        assert err.startswith(f"{paths[1]}: body is ")

    @pytest.mark.parametrize("member", [0, 1])
    def test_a_failing_reader_is_joined(self, tmp_path, monkeypatch, member):
        # member 0 is read on the calling thread, member 1 on a worker
        paths = _member_files(tmp_path, 4)
        paths[member].write_bytes(b"")
        _on_cores(monkeypatch, 2)
        before, rcs = set(threading.enumerate()), []
        caller = threading.Thread(target=lambda: rcs.append(_run_rejected(
            tmp_path, ["fuse-pixel", *map(str, paths), "-o", str(tmp_path / "out.lmap")])),
            daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        assert rcs[0].startswith(f"{paths[member]}: ")
        assert set(threading.enumerate()) <= before

    def test_a_second_reader_costs_about_one_chunk(self, tmp_path, monkeypatch):
        gt, _ = gen_ground_truth(64, 512, 19, region_scale=16, seed=0)
        paths = []
        for i in range(4):
            paths.append(tmp_path / f"t{i}.pmap")
            paths[-1].write_bytes(write_probmap(soften(corrupt_teacher(gt, [0.1] * 19, seed=i),
                                                       1.0)))
        args = argparse.Namespace(inputs=[str(p) for p in paths], renormalize=False)

        def peak(cores):
            _on_cores(monkeypatch, cores)
            tracemalloc.start()
            try:
                cli._read_members(args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(1)
        # a chunk buffer, and 96 KB for the second reader's smaller
        # temporaries (its chunk's float32 row sums, about 28 KB) and its
        # thread's own objects: 2 readers read 575 KB above 1 when measured
        assert peak(2) - one <= util._BLOCK_BYTES + 96 * 1024


class TestParserReuse:
    def test_one_parser_serves_every_call(self, scene, monkeypatch):
        tmp, gt, feats, teachers, paths = scene
        (tmp / "p.json").write_text(fileio.policy_to_json(select_random(4, 3, seed=5)))
        maps = [str(paths[f"t{i}"]) for i in range(3)]

        def argvs(out):
            return [
                ["fuse-channel", "--kappa", "4x", *maps],
                ["fuse-channel", "--policy", str(tmp / "p.json"), "--kappa", "5", *maps,
                 "-o", str(tmp / f"{out}.lmap")],
                ["eval", "--pred", str(tmp / f"{out}.lmap"), "--gt", str(paths["gt"])],
            ]

        fresh = [_subprocess_main(argv) for argv in argvs("fresh")]
        built = []

        def counting_build_parser(_build=cli.build_parser):
            built.append(1)
            return _build()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            reused = [_in_process_main(argv) for argv in argvs("reused")]
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [rc for rc, _, _ in fresh] == [2, 0, 0]
        assert reused == fresh
        assert (tmp / "reused.lmap").read_bytes() == (tmp / "fresh.lmap").read_bytes()

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestSynthCommand:
    def test_generates_manifest_and_files(self, tmp_path):
        outdir = tmp_path / "bench"
        args = [
            "synth", "--height", "12", "--width", "12", "--classes", "3",
            "--teachers", "2", "--images", "2", "--underperformers", "1",
            "--seed", "7", "--outdir", str(outdir),
        ]
        assert main(args) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 7
        for name in manifest["files"]:
            assert (outdir / name).exists()
        gt = fileio.read_labelmap((outdir / "img000.gt.lmap").read_bytes())
        assert gt.num_classes == 3
        pm = read_probmap((outdir / "teacher00.img000.pmap").read_bytes())
        assert pm.values.shape == (12, 12, 3)
        feats = np.load(outdir / "img000.features.npy")
        assert feats.shape == (12, 12, 3)

    def test_manifest_config_is_the_full_benchmark_config(self, tmp_path):
        assert main(["synth", "--seed", "0", "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        want = {**asdict(BenchmarkConfig()), "underperformers": 0}
        assert manifest["config"] == json.loads(json.dumps(want))

    def test_underperformers_are_the_library_members(self, tmp_path):
        flags = ["--height", "12", "--width", "12", "--classes", "3", "--teachers", "2",
                 "--images", "2"]
        argv = ["synth", *flags, "--underperformers", "2", "--seed", "7"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        bench = make_benchmark(
            BenchmarkConfig(height=12, width=12, classes=3, num_teachers=2, images=2), 7)
        for j in range(2):
            for i, m in enumerate(make_underperformer_maps(bench.gts, 7 + j)):
                got = (tmp_path / f"under{j:02d}.img{i:03d}.pmap").read_bytes()
                want = write_probmap(soften(m, UNDERPERFORMER_TEMPERATURE))
                assert got == want, (j, i)
        under = [(tmp_path / f"under{j:02d}.img000.pmap").read_bytes() for j in range(2)]
        assert under[0] != under[1]

    def test_peak_does_not_grow_with_underperformers(self, tmp_path):
        # each under-performer map is softened and written on its own
        flags = ["--height", "64", "--width", "128", "--classes", "19",
                 "--teachers", "2", "--images", "8", "--seed", "0"]

        def peak(underperformers):
            outdir = tmp_path / str(underperformers)
            tracemalloc.start()
            try:
                assert main(["synth", *flags, "--underperformers", str(underperformers),
                             "--outdir", str(outdir)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0)  # the first call's peak holds one-off allocations
        one_map = 64 * 128 * 19 * 8  # one float64 H x W x C map
        assert peak(2) - peak(0) < one_map / 2

    def test_peak_above_the_benchmark_is_under_two_softened_maps(self, tmp_path):
        # one softened map and its float32 cast are held while it is
        # written; no map outlives its file
        flags = ["--height", "128", "--width", "256", "--classes", "19",
                 "--teachers", "4", "--images", "2", "--seed", "0"]
        config = BenchmarkConfig(height=128, width=256, classes=19, num_teachers=4, images=2)
        assert main(["synth", *flags, "--outdir", str(tmp_path / "warm")]) == 0

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def synth():
            assert main(["synth", *flags, "--outdir", str(tmp_path / "run")]) == 0

        one_map = 128 * 256 * 19 * 8  # one softened float64 H x W x C map
        assert (peak(synth) - peak(lambda: make_benchmark(config, 0))) / one_map < 1.8

    def test_peak_does_not_grow_with_images(self, tmp_path):
        # each image is written as it is made; at most its ground truth is kept.
        # Region scale 16 keeps the scene's Voronoi step, whose tile
        # temporaries differ by up to 110 KB from image to image at the
        # default 8, below the streamed writes, so the peak is the writes'
        # plus what is held
        flags = ["--height", "64", "--width", "128", "--classes", "19",
                 "--teachers", "2", "--seed", "0", "--region-scale", "16"]

        def peak(images):
            outdir = tmp_path / str(images)
            tracemalloc.start()
            try:
                assert main(["synth", *flags, "--images", str(images),
                             "--outdir", str(outdir)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the first call's peak holds one-off allocations
        kept = 3 * 64 * 128 * 2  # three more uint16 ground-truth maps
        # 16 KB for small objects; holding the 3 more images' features
        # would add 3.7 MB
        assert peak(5) - peak(2) <= kept + 16 * 1024

    def test_peak_does_not_grow_with_images_without_underperformers(self, tmp_path):
        # no ground truth is kept where no under-performer needs it: one
        # 512 x 512 uint16 map is 512 KB, far above the Voronoi noise at
        # these scales
        flags = ["--height", "512", "--width", "512", "--classes", "4", "--teachers", "1",
                 "--seed", "0", "--region-scale", "32", "--blob-scale", "16"]

        def peak(images):
            outdir = tmp_path / str(images)
            tracemalloc.start()
            try:
                assert main(["synth", *flags, "--images", str(images),
                             "--outdir", str(outdir)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the first call's peak holds one-off allocations
        one_gt = 512 * 512 * 2
        assert peak(6) - peak(2) < one_gt / 4

    def test_each_image_is_gone_before_the_next_is_made(self, tmp_path, monkeypatch):
        # at --underperformers 0 no ground truth or teacher map outlives its
        # files, not even in a loop helper's reused result tuple
        alive = []

        def tracked_images(config, seed):
            rates, temps, images = synth.benchmark_images(config, seed)

            def tracked():
                for _ in range(config.images):
                    image = None
                    assert not [ref for ref in alive if ref() is not None]
                    image = next(images)
                    alive[:] = [weakref.ref(m) for m in (image[0], *image[2])]
                    yield image

            return rates, temps, tracked()

        monkeypatch.setattr(cli, "benchmark_images", tracked_images)
        assert main(["synth", "--height", "8", "--width", "8", "--classes", "3",
                     "--teachers", "2", "--images", "3", "--seed", "0",
                     "--outdir", str(tmp_path)]) == 0
        assert len(alive) == 3

    def test_peak_is_under_0_4_feature_maps(self, tmp_path):
        # features and softened maps stream in row blocks of about 512 KB,
        # so no float64 H x W x C map is ever whole; the peak is the
        # Voronoi and teacher temporaries of H x W ids, 0.33 maps here
        warm = ["--height", "8", "--width", "8", "--classes", "3", "--teachers", "1", "--seed", "0"]
        assert main(["synth", *warm, "--outdir", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["synth", "--height", "256", "--width", "256", "--classes", "19",
                         "--teachers", "2", "--images", "2", "--seed", "0",
                         "--outdir", str(tmp_path / "run")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_map = 256 * 256 * 19 * 8
        assert peak < 0.4 * one_map

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no VmHWM to read")
    def test_fresh_run_peaks_under_30_mb_over_its_imports(self, tmp_path):
        # Its own process: tracemalloc sees neither the pages numpy.random
        # touches on import nor the heap earlier tests leave.  At 512 x 1024
        # x 19 the whole-array teacher draws peaked 36 MB over the imports.
        argv = ["synth", "--height", "512", "--width", "1024", "--classes", "19",
                "--teachers", "4", "--images", "2", "--seed", "0",
                "--outdir", str(tmp_path / "run")]
        child = (
            "import json, sys\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "from segfuse import cli\n"
            "base = hwm()\n"
            "assert cli.main(json.loads(sys.argv[1])) == 0\n"
            "print(base, hwm())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", child, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        base_kb, peak_kb = map(int, done.stdout.split())
        assert peak_kb - base_kb < 30 * 1024

    @pytest.mark.parametrize("module, kernel, name", [
        (synth, "_feature_blocks", "img000.features.npy"),
        (cli, "_soften_blocks", "teacher00.img000.pmap"),
    ], ids=["features", "soften"])
    def test_a_failed_block_leaves_no_file(self, tmp_path, monkeypatch, module, kernel,
                                           name):
        # 128 x 256 x 5 maps are written in three row blocks; the second fails
        real = getattr(module, kernel)

        def failing(*args):
            for n, blk in enumerate(real(*args)):
                if n == 1:
                    raise ValueError("second block failed")
                yield blk

        monkeypatch.setattr(module, kernel, failing)
        outdir = tmp_path / "bench"
        argv = ["synth", "--height", "128", "--width", "256", "--classes", "5",
                "--teachers", "3", "--seed", "0", "--outdir", str(outdir)]
        assert _run_rejected(tmp_path, argv) == "second block failed"
        assert not (outdir / name).exists()
        assert not list(outdir.glob(".segfuse-*"))

    @pytest.mark.parametrize("flags, error", [
        (["--classes", "300", "--height", "10", "--width", "10"],
         "cannot place 300 classes on 10x10 pixels"),
        (["--classes", "65536", "--height", "300", "--width", "300"],
         "class count must fit 16-bit storage, got 65536"),
        (["--classes", "2", "--height", "-2", "--width", "-3"],
         "grid -2x-3 has negative sides"),
    ], ids=["classes-over-pixels", "classes-over-u16", "negative-sides"])
    def test_bad_scene_creates_no_directory_or_file(self, tmp_path, flags, error):
        # the scene is checked before the output directory is made
        outdir = tmp_path / "new" / "bench"
        argv = ["synth", *flags, "--seed", "0", "--outdir", str(outdir)]
        assert _run_rejected(tmp_path, argv) == error
        assert list(tmp_path.iterdir()) == []

    def test_rerun_is_byte_identical(self, tmp_path):
        args = lambda d: [
            "synth", "--height", "10", "--width", "10", "--classes", "3",
            "--teachers", "2", "--images", "2", "--seed", "3", "--outdir", str(d),
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def _typed_options(parser, types, command=()):
    """[*subcommands, flag] of every option of ``parser`` and its
    subcommands whose argparse type is one of ``types``."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _typed_options(sub, types, [*command, name])
        elif action.type in types:
            found.append([*command, action.option_strings[-1]])
    return found


# distill's required inputs but --seed; none of them is read on a usage error
_DISTILL = ["distill", "--features", "f.npy", "--labels", "l.lmap"]


class TestErrorHandling:
    @pytest.mark.parametrize("argv, want", [
        ([*_DISTILL, "--seed", "0", "--iterations", "abc"],
         "segfuse distill: argument --iterations: expected a 64-bit integer, got 'abc'"),
        ([*_DISTILL, "--seed", "0", "--config", "x"],
         "segfuse: unrecognized arguments: --config x"),
        (_DISTILL, "segfuse distill: the following arguments are required: --seed"),
        (["experiment", "robustness", "--seed", "0", "--bad-counts", ","],
         "segfuse experiment robustness: argument --bad-counts: "
         "expected comma-separated 64-bit integers, got ','"),
        (["experiment", "kernel-sweep", "--seed", "0", "--kappas", "1,x"],
         "segfuse experiment kernel-sweep: argument --kappas: "
         "expected comma-separated 64-bit integers, got '1,x'"),
    ], ids=["bad-int", "unknown-flag", "missing-required", "bad-counts-list",
            "bad-kappas-list"])
    def test_usage_error_is_one_json_line(self, tmp_path, capsys, monkeypatch, argv, want):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "-o", "out"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "usage" not in captured.err
        assert json.loads(lines[0]) == {"error": want}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", _typed_options(build_parser(), (cli._int, cli._ints)),
                             ids=" ".join)
    def test_integer_too_large_is_one_json_line(self, tmp_path, monkeypatch, argv):
        # a usage error, so no other argument is needed: nothing runs
        monkeypatch.chdir(tmp_path)
        rc, out, err = _in_process_main([*argv, str(2**63)])
        assert (rc, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        msg = json.loads(lines[0])["error"]
        assert f"argument {argv[-1]}: expected " in msg and "64-bit integer" in msg
        assert not list(tmp_path.iterdir())

    def test_no_option_is_a_plain_int(self):
        assert _typed_options(build_parser(), (int,)) == []

    def test_int_takes_the_int64_range(self):
        assert [cli._int(str(v)) for v in (-2**63, 0, 2**63 - 1)] == [-2**63, 0, 2**63 - 1]
        with pytest.raises(argparse.ArgumentTypeError):
            cli._int(str(-2**63 - 1))

    def test_bad_file_gives_json_error_and_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmap"
        bad.write_bytes(b"not a pmap at all")
        out = tmp_path / "out.lmap"
        rc = main(["unify", str(bad), "-o", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["unify", str(tmp_path / "nope.pmap"), "-o", str(tmp_path / "o.lmap")])
        assert rc == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_directory_input(self, tmp_path, capsys):
        rc = main(["unify", str(tmp_path), "-o", str(tmp_path / "o.lmap")])
        assert rc == 2
        assert str(tmp_path) in json.loads(capsys.readouterr().err)["error"]

    def test_directory_output_leaves_no_temp_file(self, scene, capsys):
        tmp, gt, feats, teachers, paths = scene
        out = tmp / "out.d"
        out.mkdir()
        assert main(["unify", str(paths["t0"]), "-o", str(out)]) == 2
        assert str(out) in json.loads(capsys.readouterr().err)["error"]
        assert list(out.iterdir()) == []
        assert not [p for p in tmp.iterdir() if p.name.startswith(".segfuse-")]

    def test_memory_error_gives_one_json_line(self, scene, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        tmp, gt, feats, teachers, paths = scene
        monkeypatch.setattr(fileio, "read_labels", out_of_memory)
        rc = main(["unify", str(paths["t0"]), "-o", str(tmp_path / "o.lmap")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "out of memory: Unable to allocate 8.00 GiB"

    def test_even_kappa_rejected(self, scene, tmp_path, capsys):
        tmp, gt, feats, teachers, paths = scene
        ppath = tmp / "p.json"
        ppath.write_text(fileio.policy_to_json(select_random(4, 3, seed=1)))
        rc = main([
            "fuse-channel", "--policy", str(ppath), "--kappa", "4",
            str(paths["t0"]), str(paths["t1"]), str(paths["t2"]),
            "-o", str(tmp_path / "f.lmap"),
        ])
        assert rc == 2
        assert "odd" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("policy_teachers, inputs", [(3, 4), (1, 3)])
    def test_policy_for_another_ensemble_size_exits_2(
        self, scene, capsys, policy_teachers, inputs
    ):
        tmp, gt, feats, teachers, paths = scene
        ppath = tmp / "p.json"
        assert main(["select-policy", "random", "--classes", "4", "--teachers",
                     str(policy_teachers), "--seed", "0", "-o", str(ppath)]) == 0
        maps = [str(paths[f"t{i % 3}"]) for i in range(inputs)]
        out = tmp / "f.lmap"
        assert main(["fuse-channel", "--policy", str(ppath), *maps, "-o", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        want = f"policy expects {policy_teachers} teachers, got {inputs} maps"
        assert json.loads(lines[0])["error"] == want
        assert not out.exists()


def _decoder_inputs(directory):
    """Valid inputs of every decoding command, on an 8 x 12 scene."""
    gt, feats = gen_ground_truth(8, 12, 4, region_scale=3, seed=1)
    labels = [corrupt_teacher(gt, [0.2] * 4, seed=i) for i in range(3)]
    rho = np.random.default_rng(3).random((4, 3))
    files = {
        "t0.pmap": write_probmap(soften(labels[0], 1.0)),
        "t1.lmap": fileio.write_labelmap(labels[1]),
        "t2.pmap": write_probmap(soften(labels[2], 1.0)),
        "gt.lmap": fileio.write_labelmap(gt),
        "policy.json": fileio.policy_to_json(select_random(4, 3, seed=2)).encode(),
        "feats.npy": npy_bytes(feats.values),
    }
    gt1, _ = gen_ground_truth(6, 10, 4, region_scale=3, seed=2)
    files["e1.lmap"] = fileio.write_labelmap(corrupt_teacher(gt1, [0.2] * 4, 5))
    files["gt1.lmap"] = fileio.write_labelmap(gt1)
    for t, rho_t in enumerate(reports_from_matrix(rho)):
        iou = dataset_iou([labels[t]], [gt])
        files[f"phi{t}.json"] = fileio.report_to_json(iou).encode()
        files[f"rho{t}.json"] = fileio.report_to_json(rho_t).encode()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return files


# Each command and the input files it reads that the fuzz test garbles.
# distill also reads gt.lmap, through the decoder that eval covers; alone,
# a label map whose header claims more classes is still a valid input.
_DECODER_COMMANDS = {
    "unify": ["t0.pmap"],
    "unify --renormalize": ["t0.pmap"],
    "fuse-pixel": ["t0.pmap", "t1.lmap", "t2.pmap"],
    "fuse-channel": ["t0.pmap", "t1.lmap", "t2.pmap", "policy.json"],
    "eval": ["t1.lmap", "e1.lmap", "gt.lmap", "gt1.lmap"],
    "distill": ["feats.npy"],
    "select-policy certainty": ["rho0.json", "rho1.json", "rho2.json"],
    "select-policy oracle": ["phi0.json", "phi1.json", "phi2.json"],
}


def _argv(command, path):
    if command.startswith("unify"):
        return command.split() + [path("t0.pmap"), "-o", path("out.lmap")]
    if command == "eval":
        return ["eval", "--pred", path("t1.lmap"), path("e1.lmap"),
                "--gt", path("gt.lmap"), path("gt1.lmap")]
    if command == "distill":
        return ["distill", "--features", path("feats.npy"), "--labels", path("gt.lmap"),
                "--iterations", "2", "--seed", "0", "-o", path("out.npz")]
    if command.startswith("select-policy"):
        mode = command.split()[1]
        flag = "--rho" if mode == "certainty" else "--phis"
        reports = [path(n) for n in _DECODER_COMMANDS[command]]
        return ["select-policy", mode, flag, *reports, "-o", path("out.json")]
    teachers = [path(n) for n in _DECODER_COMMANDS["fuse-pixel"]]
    out = ["-o", path("out.lmap")]
    if command == "fuse-pixel":
        return ["fuse-pixel", *teachers, *out]
    return ["fuse-channel", *teachers, "--policy", path("policy.json"), *out]


def _number_paths(obj, path=()):
    """Paths to the numbers in a decoded JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _number_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _number_paths(v, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _garble(name, data, draw, logits=False):
    """Change the input so that no decoder may accept it.  Any finite
    float32 is a valid logit, so a ``logits`` body value only becomes
    NaN or +-inf."""
    if name.endswith(".json"):
        if draw(st.booleans()):
            # '#' is invalid anywhere in JSON; inside a key it swaps a known
            # field for an unknown one.
            i = draw(st.integers(0, len(data) - 1))
            return data[:i] + b"#" + data[i + 1:]
        # a number becomes a string, a bool, a list or an object
        obj = json.loads(data)
        path = draw(st.sampled_from(list(_number_paths(obj))))
        *parents, last = path
        holder = obj
        for key in parents:
            holder = holder[key]
        holder[last] = draw(st.sampled_from(["0.5", True, False, [], {}]))
        return json.dumps(obj).encode()
    out = bytearray(data)
    if name.endswith(".npy"):
        if draw(st.booleans()):
            i = draw(st.integers(0, 5))  # the magic string
            out[i] = (out[i] + draw(st.integers(1, 255))) % 256
        else:
            i = len(data) - 8 * draw(st.integers(1, 8 * 12 * 4))
            out[i:i + 8] = struct.pack("<d", draw(st.sampled_from(
                [float("nan"), float("inf"), float("-inf")])))
        return bytes(out)
    header = fileio._HEADER.size
    if draw(st.booleans()):
        # magic, version, height, width or class count
        i = draw(st.integers(0, header - 1))
        out[i] = (out[i] + draw(st.integers(1, 255))) % 256
    elif name.endswith(".pmap"):
        i = header + 4 * draw(st.integers(0, (len(data) - header) // 4 - 1))
        bad = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]
                                   + [-0.5, 2.0] * (not logits)))
        out[i:i + 4] = struct.pack("<f", bad)
    else:
        i = header + 2 * draw(st.integers(0, (len(data) - header) // 2 - 1))
        out[i:i + 2] = struct.pack("<H", draw(st.integers(4, 65534)))  # 4 classes
    return bytes(out)


def _run_rejected(directory, argv) -> str:
    """Run the CLI, check that it rejected its input cleanly, return the error."""
    for out in directory.glob("out.*"):
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])["error"]
    assert "Traceback" not in err.getvalue()
    assert not list(directory.glob("out.*"))
    return msg


class TestDecodeErrorNamesFile:
    """A file that fails to decode is named in the error, wherever it sits."""

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, names in _DECODER_COMMANDS.items() for name in names
    ])
    def test_truncated_input(self, tmp_path, command, name):
        files = _decoder_inputs(tmp_path)
        (tmp_path / name).write_bytes(files[name][: len(files[name]) // 2])
        err = _run_rejected(tmp_path, _argv(command, lambda n: str(tmp_path / n)))
        assert err.startswith(f"{tmp_path / name}: ")

    @pytest.mark.parametrize("command, name", [
        ("select-policy certainty", "rho1.json"), ("fuse-channel", "policy.json"),
    ])
    def test_json_input_that_is_not_utf8(self, tmp_path, command, name):
        _decoder_inputs(tmp_path)
        (tmp_path / name).write_bytes(b'{"per_class": [0.5, \xff]}')
        err = _run_rejected(tmp_path, _argv(command, lambda n: str(tmp_path / n)))
        assert err.startswith(f"{tmp_path / name}: ")


class TestDecoderFuzz:
    """Truncated, extended or garbled inputs exit 2 with one JSON error line."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        return directory, _decoder_inputs(directory)

    def test_valid_inputs_are_accepted(self, inputs):
        directory, files = inputs
        for command in _DECODER_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(_argv(command, lambda n: str(directory / n))) == 0, command
        for out in directory.glob("out.*"):
            out.unlink()

    @given(st.sampled_from(sorted(_DECODER_COMMANDS)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_malformed_input_exits_2_with_one_json_line(self, inputs, command, data):
        directory, files = inputs
        name = data.draw(st.sampled_from(_DECODER_COMMANDS[command]))
        good = files[name]
        how = data.draw(st.sampled_from(["truncate", "extend", "garble"]))
        if how == "truncate":
            bad = good[: data.draw(st.integers(0, len(good) - 1))]
        elif how == "extend":
            bad = good + data.draw(st.binary(min_size=1, max_size=16).filter(
                lambda b: not b.decode("latin-1").isspace()))
        else:
            bad = _garble(name, good, data.draw, logits="--renormalize" in command)
        bad_name = "bad." + name.rsplit(".", 1)[1]
        (directory / bad_name).write_bytes(bad)

        def path(n):
            return str(directory / (bad_name if n == name else n))

        _run_rejected(directory, _argv(command, path))

    @pytest.mark.parametrize("command, names, content", [
        ("distill", ["feats.npy"], npy_bytes(np.zeros((8, 12, 4), dtype=[("a", "<f8")]))),
        ("select-policy oracle", ["phi0.json"], b'{"per_class": 5}'),
        ("select-policy oracle", ["phi0.json", "phi1.json", "phi2.json"],
         b'{"per_class": [true, 0.5]}'),
        ("select-policy oracle", ["phi0.json", "phi1.json", "phi2.json"],
         b'{"per_class": [0.5, 0.2], "miou": "abc"}'),
        ("select-policy oracle", ["phi0.json", "phi1.json", "phi2.json"],
         b'{"per_class": [0.5, 0.2], "miou": 0.99}'),
        ("select-policy certainty", ["rho0.json", "rho1.json", "rho2.json"],
         b'{"per_class": [0.5, 0.2], "miou": "abc"}'),
        ("select-policy certainty", ["rho0.json", "rho1.json", "rho2.json"],
         b'{"per_class": [0.5, 0.2], "miou": 0.99}'),
        ("distill", ["feats.npy"], npy_bytes(np.zeros((8, 12, 0)))),
        ("select-policy certainty", ["rho1.json"], b"[" * 200_000),
        ("select-policy oracle", ["phi0.json"], b"[" * 200_000),
        ("fuse-channel", ["policy.json"], b"[" * 200_000),
        ("fuse-channel", ["policy.json"], b'{"classes": 4, "assignment": [0, 1, 2, 0]}'),
        ("distill", ["feats.npy"], npy_bytes(np.full((8, 12, 4), 0.5, dtype=object))),
        ("distill", ["feats.npy"], npy_bytes(np.zeros((8, 12, 4)))[:6] + b"\x04"
         + npy_bytes(np.zeros((8, 12, 4)))[7:]),
        ("unify", ["t0.pmap"], fileio._HEADER.pack(b"PMAP", 1, 0, 12, 4)),
        ("eval", ["t1.lmap"], fileio._HEADER.pack(b"LMAP", 1, 8, 0, 4)),
    ], ids=["features-structured-dtype", "phi-number",
            "phi-bool-iou", "phi-string-miou", "phi-contradicting-miou",
            "rho-string-miou", "rho-contradicting-miou", "features-empty",
            "rho-deeply-nested", "phi-deeply-nested", "policy-deeply-nested",
            "policy-missing-field", "features-object-array", "features-version-4",
            "pmap-zero-height", "lmap-zero-width"])
    def test_reproduced_bad_input(self, tmp_path, command, names, content):
        _decoder_inputs(tmp_path)
        for name in names:
            (tmp_path / name).write_bytes(content)
        err = _run_rejected(tmp_path, _argv(command, lambda n: str(tmp_path / n)))
        assert err.startswith(f"{tmp_path / names[0]}: ")


class TestExperimentCommands:
    BENCH = [
        "--height", "12", "--width", "12", "--classes", "3", "--teachers", "2",
        "--images", "2", "--region-scale", "4",
    ]

    def test_kernel_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["experiment", "kernel-sweep", "--kappas", "1,3", "--seeds", "2",
                "--seed", "0", "-o", str(out)] + self.BENCH
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,seed,miou,gain"
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("flag, value", [("--lr", "0.1"), ("--iterations", "20")])
    def test_kernel_sweep_rejects_training_flags(self, flag, value, capsys):
        # kernel-sweep never trains, so it takes no training flags
        args = ["experiment", "kernel-sweep", "--seed", "0", flag, value] + self.BENCH
        with pytest.raises(SystemExit) as exit_:
            main(args)
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "robustness", "--bad-counts", "0,-2"],
        ["experiment", "kernel-sweep", "--kappas", "1,2", "--seeds", "1"],
        *[["experiment", kind, "--seeds", n]
          for kind in ("kernel-sweep", "robustness", "policy-quality", "correlation")
          for n in ("0", "-2")],
        ["experiment", "prop-check", "--instances", "-3"],
        ["experiment", "certainty-hist", "--bins", "9223372036854775807"],
        # bins + 1 float64 edges past numpy's array size: np.linspace's IndexError
        ["experiment", "certainty-hist", "--bins", "9223372036854775806"],
        ["synth", "--underperformers", "-1"],
        ["synth", "--blob-scale", "-4"],
    ], ids=" ".join)
    def test_bad_count_exits_2(self, tmp_path, argv):
        out = ["--outdir", str(tmp_path / "out.d")] if argv[0] == "synth" else [
            "-o", str(tmp_path / "out.csv")]
        _run_rejected(tmp_path, argv + ["--seed", "0"] + out)

    @pytest.mark.parametrize("argv", [["synth"], ["experiment", "kernel-sweep"],
                                      ["experiment", "robustness"], ["experiment", "flexibility"]],
                             ids=" ".join)
    def test_grid_past_int64_pixels_is_refused_by_name(self, tmp_path, argv):
        # 4e9 x 4e9 pixels do not fit an int64: refused before any draw
        out = ["--outdir", str(tmp_path / "out.d")] if argv[0] == "synth" else [
            "-o", str(tmp_path / "out.csv")]
        big = ["--height", "4000000000", "--width", "4000000000", "--seed", "0"]
        msg = _run_rejected(tmp_path, argv + big + out)
        assert msg == ("grid 4000000000x4000000000 has 16000000000000000000 pixels, "
                       "more than an int64 holds")

    def test_prop_check_jsonl(self, tmp_path):
        out = tmp_path / "props.jsonl"
        args = ["experiment", "prop-check", "--instances", "5",
                "--seed", "0", "-o", str(out)]
        assert main(args) == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(rows) == 10
        assert all(r["precondition_met"] for r in rows)

    def test_flexibility_runs_one_round(self, tmp_path):
        out = tmp_path / "flex.csv"
        args = ["experiment", "flexibility", "--rounds", "2", "--seed", "1",
                "--iterations", "20", "-o", str(out)] + self.BENCH
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "round,ensemble_size,student_miou"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert int(second[1]) == int(first[1]) + 1  # student joined the ensemble


def _experiment_kinds():
    """The kinds of `segfuse experiment`, as the parser lists them."""
    return sorted(_subcommands(_subcommands(build_parser())["experiment"]))


# Small arguments for each experiment kind (--seed and -o are added).
_SMALL_BENCH = ["--height", "12", "--width", "12", "--classes", "3", "--teachers", "2",
                "--images", "2", "--region-scale", "4"]
_EXPERIMENT_ARGS = {
    "kernel-sweep": [*_SMALL_BENCH, "--kappas", "1,3", "--seeds", "1"],
    "robustness": [*_SMALL_BENCH, "--bad-counts", "0,1", "--seeds", "1",
                   "--iterations", "5"],
    "flexibility": [*_SMALL_BENCH, "--rounds", "1", "--iterations", "5"],
    "prop-check": ["--instances", "3"],
    "policy-quality": ["--seeds", "1", "--iterations", "5"],
    "correlation": ["--seeds", "1", "--iterations", "5"],
    "certainty-hist": ["--bins", "4"],
}


class TestExperimentKinds:
    @pytest.mark.parametrize("kind", _experiment_kinds())
    def test_rerun_is_byte_identical(self, kind, tmp_path):
        assert kind in _EXPERIMENT_ARGS, f"no small arguments for experiment kind {kind!r}"
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = ["experiment", kind, *_EXPERIMENT_ARGS[kind], "--seed", "1"]
            assert main([*argv, "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") >= 2

    def run(self, tmp_path, kind, *args):
        out = tmp_path / f"{kind}.csv"
        assert main(["experiment", kind, *args, "-o", str(out)]) == 0
        return out.read_text()

    # The three kinds below replaced scripts that made these library calls.

    def test_policy_quality_matches_library(self, tmp_path):
        got = self.run(tmp_path, "policy-quality", "--seed", "1", "--seeds", "2",
                       "--iterations", "5")
        tc = TrainConfig(iterations=5, seed=1)
        assert got == rows_to_csv(*policy_quality(BenchmarkConfig(), 1, 2, tc))

    def test_correlation_matches_library(self, tmp_path):
        got = self.run(tmp_path, "correlation", "--seed", "1", "--seeds", "2",
                       "--iterations", "5")
        tc = TrainConfig(iterations=5, seed=1)
        rows = []
        for seed in (1, 2):
            bench = make_benchmark(BenchmarkConfig(), seed)
            unified = bench.teacher_labels
            reports = [dataset_iou(maps, bench.gts) for maps in unified]
            rhos = [measure_teacher(m, bench.feats, config=tc) for m in unified]
            sims = certainty_iou_cosine(rhos, reports)
            rows += [(seed, c, float(sim)) for c, sim in enumerate(sims)]
        assert got == rows_to_csv(["seed", "class", "cosine"], rows)

    def test_certainty_hist_matches_library(self, tmp_path):
        got = self.run(tmp_path, "certainty-hist", "--seed", "3", "--bins", "7")
        bench = make_benchmark(BenchmarkConfig(), 3)
        members = {f"teacher{t}": soften(maps[0], temp) for t, (maps, temp)
                   in enumerate(zip(bench.teacher_labels, bench.temperatures))}
        under00 = make_underperformer_maps(bench.gts, 3)[0]
        members["underperformer"] = soften(under00, UNDERPERFORMER_TEMPERATURE)
        want = ["member,bin_low,bin_high,count"]
        for name, pm in members.items():
            counts, edges = certainty_histogram(pm, 7)
            want += [f"{name},{float(edges[i])!r},{float(edges[i + 1])!r},{int(n)}"
                     for i, n in enumerate(counts)]
        assert got.splitlines() == want

    @pytest.mark.parametrize("flag", ["--height", "--blob-scale", "--lr"])
    def test_moved_kinds_take_no_benchmark_or_lr_flags(self, flag, capsys):
        # they run on BenchmarkConfig(), as the scripts did; no kind takes an
        # lr, since the SGD recipe is fixed
        kinds = ("policy-quality", "correlation", "certainty-hist")
        if flag == "--lr":
            kinds += ("robustness", "flexibility")
        for kind in kinds:
            with pytest.raises(SystemExit) as exit_:
                main(["experiment", kind, "--seed", "0", flag, "2"])
            assert exit_.value.code == 2
            assert flag in capsys.readouterr().err


class TestFileReplay:
    """A driver's rows, replayed command by command from files."""

    @staticmethod
    def run(*argv) -> str:
        rc, out, err = _in_process_main(list(argv))
        assert (rc, err) == (0, ""), argv
        return out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_policy_quality_random_and_oracle_rows(self, tmp_path, seed):
        config = BenchmarkConfig()
        bench = tmp_path / "bench"
        self.run("synth", "--seed", str(seed), "--outdir", str(bench))
        images, members = range(config.images), range(config.num_teachers)
        gts = [str(bench / f"img{i:03d}.gt.lmap") for i in images]

        def labels(t, i):
            return str(tmp_path / f"teacher{t:02d}.img{i:03d}.lmap")

        for t in members:
            for i in images:
                self.run("unify", str(bench / f"teacher{t:02d}.img{i:03d}.pmap"),
                         "-o", labels(t, i))
            self.run("eval", "--pred", *(labels(t, i) for i in images), "--gt", *gts,
                     "-o", str(tmp_path / f"phi{t}.json"))
        policies = {
            "random": ["random", "--classes", str(config.classes),
                       "--teachers", str(config.num_teachers), "--seed", str(seed)],
            "oracle": ["oracle", "--phis", *(str(tmp_path / f"phi{t}.json") for t in members)],
        }
        got = {}
        for name, argv in policies.items():
            policy = str(tmp_path / f"{name}.json")
            self.run("select-policy", *argv, "-o", policy)
            fused = [str(tmp_path / f"{name}.img{i:03d}.lmap") for i in images]
            for i in images:
                self.run("fuse-channel", *(labels(t, i) for t in members),
                         "--policy", policy, "-o", fused[i])
            got[name] = json.loads(self.run("eval", "--pred", *fused, "--gt", *gts))["miou"]
        table = self.run("experiment", "policy-quality", "--seeds", "1", "--iterations", "1",
                         "--seed", str(seed))
        rows = [line.split(",") for line in table.splitlines()[1:]]
        assert got == {name: float(miou) for _, name, miou in rows if name in got}

    @pytest.mark.parametrize("preds, gts", [(2, 1), (1, 2)])
    def test_eval_count_mismatch_exits_2(self, scene, preds, gts):
        tmp, gt, feats, teachers, paths = scene
        pred = tmp / "pred.lmap"
        pred.write_bytes(fileio.write_labelmap(unify(teachers[0])))
        argv = ["eval", "--pred", *[str(pred)] * preds, "--gt", *[str(paths["gt"])] * gts,
                "-o", str(tmp / "out.json")]
        err = _run_rejected(tmp, argv)
        assert err == f"need equally many predictions and ground truths, got {preds} and {gts}"


# Each command that takes --seed, with its other required arguments.
_SEEDED_ARGV = [
    ["distill", "--features", "missing.npy", "--labels", "missing.lmap", "-o", "out.npz"],
    ["synth", "--outdir", "out.d"],
    ["select-policy", "random", "--classes", "3", "--teachers", "2"],
    *[["experiment", kind] for kind in _experiment_kinds()],
]


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "abc"])
    @pytest.mark.parametrize("argv", _SEEDED_ARGV, ids=" ".join)
    def test_bad_seed_is_a_usage_error_naming_the_flag(
        self, tmp_path, capsys, monkeypatch, argv, seed
    ):
        # distill's inputs do not exist: the seed is rejected before any read
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--seed", seed])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        want = f"argument --seed: expected a non-negative integer, got {seed!r}"
        assert json.loads(lines[0])["error"].endswith(want)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, want", [
        ("--iterations", "0", "iterations must be >= 1"),
    ])
    def test_distill_checks_its_config_before_reading_inputs(
        self, tmp_path, flag, value, want
    ):
        argv = ["distill", "--features", str(tmp_path / "missing.npy"),
                "--labels", str(tmp_path / "missing.lmap"), "--seed", "0",
                flag, value, "-o", str(tmp_path / "out.npz")]
        assert _run_rejected(tmp_path, argv) == want

    def test_seed_takes_any_non_negative_integer(self):
        assert [cli._seed(s) for s in ("0", "7", "+3", str(2**70))] == [0, 7, 3, 2**70]


def _settable_options(parser) -> int:
    """The options and positionals of ``parser`` and of all its subcommands."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_settable_options(p) for p in action.choices.values())
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_settable_value_count_is_pinned():
    # every CLI option or positional, plus every config field a caller can set;
    # a change that adds or removes one updates this count on purpose
    options = _settable_options(build_parser())
    config_fields = len(fields(TrainConfig)) + len(fields(BenchmarkConfig))
    assert (options, config_fields) == (87, 9)
    assert options + config_fields == 96

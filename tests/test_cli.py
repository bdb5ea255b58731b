import argparse
import contextlib
import io
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import fileio
from segfuse.cli import build_parser, main
from segfuse.core import stack_reports
from segfuse.distill import TrainConfig, certainty_selection_protocol, train_student
from segfuse.experiments import policy_quality
from segfuse.fusion import channel_fuse, pixel_fuse
from segfuse.metrics import (
    certainty_histogram,
    certainty_iou_cosine,
    dataset_iou,
    per_class_iou,
)
from segfuse.policy import select_certainty, select_random
from segfuse.synth import (
    BenchmarkConfig,
    corrupt_teacher,
    gen_ground_truth,
    gen_underperformer,
    make_benchmark,
)
from segfuse.unify import unify
from segfuse.util import rows_to_csv

from helpers import reports_from_matrix


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
        corrupt_teacher(gt, [0.1] * 4, temp, seed=i)
        for i, temp in enumerate((0.5, 1.0, 2.0))
    ]
    paths = {}
    paths["gt"] = tmp_path / "gt.lmap"
    paths["gt"].write_bytes(fileio.write_labelmap(gt))
    paths["feats"] = tmp_path / "feats.npy"
    np.save(paths["feats"], feats.values)
    for i, t in enumerate(teachers):
        p = tmp_path / f"t{i}.pmap"
        p.write_bytes(fileio.write_probmap(t))
        paths[f"t{i}"] = p
    return tmp_path, gt, feats, teachers, paths


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
        want = per_class_iou(unify(teachers[0]), gt)
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
        proto = certainty_selection_protocol(list(bench.teacher_probs), bench.feats,
                                             config=TrainConfig(iterations=60))
        files = _write_columns(tmp_path, "rho", stack_reports(proto.table))
        back = stack_reports([fileio.report_from_json(Path(f).read_text()) for f in files])
        np.testing.assert_array_equal(back, stack_reports(proto.table))  # NaN cells included
        assert main(["select-policy", "certainty", "--rho"] + files) == 0
        got = fileio.policy_from_json(capsys.readouterr().out)
        np.testing.assert_array_equal(got.assignment, proto.policy.assignment)

    @pytest.mark.parametrize("mode, flag", [("certainty", "--rho"), ("oracle", "--phis")])
    def test_select_policy_class_count_mismatch(self, tmp_path, capsys, mode, flag):
        files = _write_columns(tmp_path, "a", np.full((3, 1), 0.5))
        files += _write_columns(tmp_path, "b", np.full((2, 1), 0.5))
        assert main(["select-policy", mode, flag] + files) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == "teacher reports disagree on class count: [2, 3]"

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
        args = [
            "distill", "--features", str(paths["feats"]), "--labels", str(paths["gt"]),
            "--seed", "4", "--lr", "0.4", "--iterations", "30",
            "-o", str(model_out), "--trace-out", str(trace_out),
        ]
        assert main(args) == 0
        cfg = TrainConfig(lr=0.4, iterations=30, seed=4)
        want = train_student(feats, gt, cfg)
        saved = np.load(model_out)
        np.testing.assert_array_equal(saved["weights"], want.model.weights)
        np.testing.assert_array_equal(saved["bias"], want.model.bias)
        want_trace = ["iter,loss"] + [f"{i},{float(v)!r}" for i, v in enumerate(want.losses)]
        assert trace_out.read_text().splitlines() == want_trace
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_loss"] == pytest.approx(float(want.losses[-1]))


class TestRenormalize:
    """--renormalize reads a .pmap body as logits, as read_probmap(renormalize=True)."""

    @pytest.fixture
    def logits(self, tmp_path):
        """Three logit .pmap files, their paths and the library's unified maps."""
        rng = np.random.default_rng(0)
        paths, unified = [], []
        for t in range(3):
            body = rng.normal(0.0, 3.0, size=(8, 12, 4)).astype("<f4").tobytes()
            data = fileio._HEADER.pack(b"PMAP", 1, 8, 12, 4) + body
            path = tmp_path / f"logits{t}.pmap"
            path.write_bytes(data)
            paths.append(str(path))
            unified.append(unify(fileio.read_probmap(data, renormalize=True)))
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
        pm = fileio.read_probmap((outdir / "teacher00.img000.pmap").read_bytes())
        assert pm.values.shape == (12, 12, 3)
        feats = np.load(outdir / "img000.features.npy")
        assert feats.shape == (12, 12, 3)

    def test_manifest_config_is_the_full_benchmark_config(self, tmp_path):
        assert main(["synth", "--seed", "0", "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        want = {**asdict(BenchmarkConfig()), "underperformers": 0}
        assert manifest["config"] == json.loads(json.dumps(want))

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


class TestErrorHandling:
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

    def test_memory_error_gives_one_json_line(self, scene, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        tmp, gt, feats, teachers, paths = scene
        monkeypatch.setattr(fileio, "read_probmap", out_of_memory)
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


def _npy(values) -> bytes:
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue()


def _decoder_inputs(directory):
    """Valid inputs of every decoding command, on an 8 x 12 scene."""
    gt, feats = gen_ground_truth(8, 12, 4, region_scale=3, seed=1)
    teachers = [corrupt_teacher(gt, [0.2] * 4, 1.0, seed=i) for i in range(3)]
    rho = np.random.default_rng(3).random((4, 3))
    files = {
        "t0.pmap": fileio.write_probmap(teachers[0]),
        "t1.lmap": fileio.write_labelmap(unify(teachers[1])),
        "t2.pmap": fileio.write_probmap(teachers[2]),
        "gt.lmap": fileio.write_labelmap(gt),
        "policy.json": fileio.policy_to_json(select_random(4, 3, seed=2)).encode(),
        "feats.npy": _npy(feats.values),
        "config.json": b'{"iterations": 2, "lr": 0.25}',
    }
    for t, rho_t in enumerate(reports_from_matrix(rho)):
        iou = per_class_iou(unify(teachers[t]), gt)
        files[f"phi{t}.json"] = fileio.report_to_json(iou).encode()
        files[f"rho{t}.json"] = fileio.report_to_json(rho_t).encode()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return files


# Each command and the input files it reads that the fuzz test garbles.
# distill also reads gt.lmap, through the decoder that eval covers; alone,
# a label map whose header claims more classes is still a valid input.
_DECODER_COMMANDS = {
    "fuse-pixel": ["t0.pmap", "t1.lmap", "t2.pmap"],
    "fuse-channel": ["t0.pmap", "t1.lmap", "t2.pmap", "policy.json"],
    "eval": ["t1.lmap", "gt.lmap"],
    "distill": ["feats.npy", "config.json"],
    "select-policy certainty": ["rho0.json", "rho1.json", "rho2.json"],
    "select-policy oracle": ["phi0.json", "phi1.json", "phi2.json"],
}


def _argv(command, path):
    if command == "eval":
        return ["eval", "--pred", path("t1.lmap"), "--gt", path("gt.lmap")]
    if command == "distill":
        return ["distill", "--features", path("feats.npy"), "--labels", path("gt.lmap"),
                "--config", path("config.json"), "--seed", "0", "-o", path("out.npz")]
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


def _garble(name, data, draw):
    """Change the input so that no decoder may accept it."""
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
        bad = draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.5, 2.0]))
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
        ("distill", "config.json"),
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
            bad = _garble(name, good, data.draw)
        bad_name = "bad." + name.rsplit(".", 1)[1]
        (directory / bad_name).write_bytes(bad)

        def path(n):
            return str(directory / (bad_name if n == name else n))

        _run_rejected(directory, _argv(command, path))

    @pytest.mark.parametrize("command, names, content", [
        ("distill", ["config.json"], b'["lr"]'),
        ("distill", ["config.json"], b"3"),
        ("distill", ["config.json"], b'{"lr": "abc"}'),
        ("distill", ["config.json"], b'{"iterations": 2.5}'),
        ("distill", ["config.json"], b'{"momentum": null}'),
        ("distill", ["feats.npy"], _npy(np.zeros((8, 12, 4), dtype=[("a", "<f8")]))),
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
    ], ids=["config-list", "config-number", "config-string-lr", "config-float-iterations",
            "config-null-momentum", "features-structured-dtype", "phi-number",
            "phi-bool-iou", "phi-string-miou", "phi-contradicting-miou",
            "rho-string-miou", "rho-contradicting-miou"])
    def test_reproduced_bad_input(self, tmp_path, command, names, content):
        _decoder_inputs(tmp_path)
        for name in names:
            (tmp_path / name).write_bytes(content)
        _run_rejected(tmp_path, _argv(command, lambda n: str(tmp_path / n)))


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
        *[["experiment", kind, "--seeds", n]
          for kind in ("kernel-sweep", "robustness", "policy-quality", "correlation")
          for n in ("0", "-2")],
        ["experiment", "prop-check", "--instances", "-3"],
        ["synth", "--underperformers", "-1"],
        ["synth", "--blob-scale", "-4"],
    ], ids=" ".join)
    def test_bad_count_exits_2(self, tmp_path, argv):
        out = ["--outdir", str(tmp_path / "out.d")] if argv[0] == "synth" else [
            "-o", str(tmp_path / "out.csv")]
        _run_rejected(tmp_path, argv + ["--seed", "0"] + out)

    def test_prop_check_jsonl(self, tmp_path):
        out = tmp_path / "props.jsonl"
        args = ["experiment", "prop-check", "--prop", "both", "--instances", "5",
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
    def subcommands(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    return sorted(subcommands(subcommands(build_parser())["experiment"]))


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
            unified = [[unify(pm) for pm in maps] for maps in bench.teacher_probs]
            reports = [dataset_iou(maps, bench.gts) for maps in unified]
            proto = certainty_selection_protocol(list(bench.teacher_probs), bench.feats,
                                                 config=tc)
            sims = certainty_iou_cosine(proto.table, reports)
            rows += [(seed, c, float(sim)) for c, sim in enumerate(sims)]
        assert got == rows_to_csv(["seed", "class", "cosine"], rows)

    def test_certainty_hist_matches_library(self, tmp_path):
        got = self.run(tmp_path, "certainty-hist", "--seed", "3", "--bins", "7")
        bench = make_benchmark(BenchmarkConfig(), 3)
        members = {f"teacher{t}": maps[0] for t, maps in enumerate(bench.teacher_probs)}
        members["underperformer"] = gen_underperformer(bench.gts[0], seed=3)
        want = ["member,bin_low,bin_high,count"]
        for name, pm in members.items():
            counts, edges = certainty_histogram(pm, 7)
            want += [f"{name},{float(edges[i])!r},{float(edges[i + 1])!r},{int(n)}"
                     for i, n in enumerate(counts)]
        assert got.splitlines() == want

    @pytest.mark.parametrize("flag", ["--height", "--blob-scale", "--lr"])
    def test_moved_kinds_take_no_benchmark_or_lr_flags(self, flag, capsys):
        # they run on BenchmarkConfig() with TrainConfig's lr, as the scripts did
        for kind in ("policy-quality", "correlation", "certainty-hist"):
            with pytest.raises(SystemExit) as exit_:
                main(["experiment", kind, "--seed", "0", flag, "2"])
            assert exit_.value.code == 2
            assert flag in capsys.readouterr().err

"""Command-line surface: thin wrappers over the library plus experiment drivers.

Every command is a pure function of its inputs and flags; all randomness
enters through an explicit --seed.  Results go to stdout as JSON (or CSV
for experiment tables) unless -o is given, in which case files are written
atomically.  Validation failures and unreadable or unwritable paths exit
2 with a JSON error line on stderr, which names any input file that
fails to decode; a warning is likewise one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import io as _io
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import fileio, util
from .core import ProbabilityCheck
from .distill import TrainConfig, _TrainingBlocks, student_blocks, train_rows
from .experiments import (
    certainty_hist,
    correlation,
    flexibility,
    kernel_sweep,
    policy_quality,
    prop_checks,
    robustness,
)
from .fusion import DEFAULT_KAPPA, channel_fuse, pixel_fuse
from .metrics import dataset_iou
from .policy import select_certainty, select_oracle, select_random
from .synth import (UNDERPERFORMER_TEMPERATURE, BenchmarkConfig, _soften_blocks,
                    benchmark_images, make_underperformer_maps)
from .util import on_threads, rows_to_csv


def _load(path: str, decode, *args, text: bool = False, stream: bool = False):
    """``decode(contents, *args)`` of the file at ``path``; a ValueError is
    raised again with the path in front.  The contents are the file open
    for reading with ``stream``; else its bytes, or with ``text`` their
    UTF-8 text."""
    try:
        with open(path, "rb") as fh:
            if stream:
                return decode(fh, *args)
            data = fh.read()
        return decode(data.decode("utf-8") if text else data, *args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _emit_text(args, text: str) -> None:
    if getattr(args, "output", None):
        fileio.write_bytes_atomic(args.output, text.encode("utf-8"))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_unify(args) -> int:
    labels = _load(args.input, fileio.read_labels, args.renormalize, stream=True)
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(labels))
    return 0


def _read_members(args) -> list:
    """The labels of each member file of ``args.inputs``, in order, read on
    one thread per core, at most one per member (``on_threads``): worker w
    reads members w, w + W, ...  A read lets go of the GIL in its file
    reads and numpy's loops, so reads of ``util.RowBlock`` chunks
    overlap.  A failure raised is the first failing member's in argument
    order, as a loop's would be."""
    return on_threads(lambda w, p: _load(p, fileio.read_labels, args.renormalize, stream=True),
                      args.inputs, util.cores())


def cmd_fuse_pixel(args) -> int:
    maps = _read_members(args)
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(pixel_fuse(maps)))
    return 0


def cmd_fuse_channel(args) -> int:
    policy = _load(args.policy, fileio.policy_from_json, text=True)
    maps = _read_members(args)
    fused = channel_fuse(maps, policy, args.kappa)
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(fused))
    return 0


def cmd_eval(args) -> int:
    preds = [_load(p, fileio.read_labelmap) for p in args.pred]
    gts = [_load(g, fileio.read_labelmap) for g in args.gt]
    _emit_text(args, fileio.report_to_json(dataset_iou(preds, gts)))
    return 0


def cmd_select_policy(args) -> int:
    if args.mode == "random":
        policy = select_random(args.classes, args.teachers, args.seed)
    else:
        select = select_certainty if args.mode == "certainty" else select_oracle
        policy = select([_load(p, fileio.report_from_json, text=True)
                         for p in args.reports])
    _emit_text(args, fileio.policy_to_json(policy))
    return 0


def _read_images(pairs):
    """Read the images of the (feature path, LabelMap) pairs ``pairs``, in
    order, into one ``_TrainingBlocks`` of their labeled pixels, each
    feature file streamed through ``fileio.read_feature_rows``.  Returns
    it, every row added, and each image's (labeled mask, unlabeled pieces):
    the images ``student_blocks`` reads."""
    x = _TrainingBlocks([labels for _, labels in pairs])
    images, start = [], 0
    for path, labels in pairs:
        pieces = _load(path, fileio.read_feature_rows, labels, x, stream=True)
        end = start + labels.height * labels.width
        images.append((x.labeled[start:end], pieces))
        start = end
    return x, images


def cmd_distill(args) -> int:
    config = TrainConfig(iterations=args.iterations, seed=args.seed)
    labels = _load(args.labels, fileio.read_labelmap)
    x, images = _read_images([(args.features, labels)])
    # train_rows takes the finished set; its label sums and positions die
    # with it, so the --probmap-out write holds only x's blocks and pieces.
    result = train_rows(x.done(), config)
    buf = _io.BytesIO()
    np.savez(buf, weights=result.model.weights, bias=result.model.bias)
    outputs = [(args.output, [buf.getvalue()])]
    if args.probmap_out:
        blocks = (blk.T for _, blk in student_blocks(result.model, x.blocks, images))
        outputs.append((args.probmap_out, fileio.probmap_chunks(
            labels.height, labels.width, labels.num_classes, blocks)))
    if args.trace_out:
        trace = rows_to_csv(["iter", "loss"], enumerate(result.losses))
        outputs.append((args.trace_out, [trace.encode("utf-8")]))
    fileio.write_files_atomic(outputs)
    print(
        json.dumps(
            {
                "iterations": config.iterations,
                "initial_loss": float(result.losses[0]),
                "final_loss": float(result.losses[-1]),
            }
        )
    )
    return 0


#: Flag -> BenchmarkConfig field.
_BENCH_FLAGS = {
    "height": "height",
    "width": "width",
    "classes": "classes",
    "teachers": "num_teachers",
    "images": "images",
    "region-scale": "region_scale",
    "blob-scale": "teacher_blob_scale",
}


def _seed(text: str) -> int:
    """The argparse type of every --seed: a non-negative integer, as numpy's
    generators take, so a bad seed is a usage error before any input is read."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


_INT64 = np.iinfo(np.int64)


def _int(text: str) -> int:
    """The argparse type of every integer option but --seed: an int64, so a
    value numpy cannot take is a usage error that names its flag."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not _INT64.min <= value <= _INT64.max:
        raise argparse.ArgumentTypeError(f"expected a 64-bit integer, got {text!r}")
    return value


def _ints(text: str) -> list[int]:
    """The argparse type of --kappas and --bad-counts: comma-separated
    ``_int`` values, so a malformed list is a usage error that names its flag."""
    try:
        return [_int(k) for k in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated 64-bit integers, got {text!r}") from None


def _add_bench_flags(parser) -> None:
    """One flag per ``_BENCH_FLAGS`` entry, defaulted by ``BenchmarkConfig()``."""
    defaults = BenchmarkConfig()
    for flag, field in _BENCH_FLAGS.items():
        parser.add_argument(f"--{flag}", type=_int, default=getattr(defaults, field))


def _bench_config(args) -> BenchmarkConfig:
    """The BenchmarkConfig of the parsed ``_BENCH_FLAGS``."""
    return BenchmarkConfig(**{field: getattr(args, flag.replace("-", "_"))
                              for flag, field in _BENCH_FLAGS.items()})


def cmd_synth(args) -> int:
    if args.underperformers < 0:
        raise ValueError(f"--underperformers must be >= 0, got {args.underperformers}")
    config = _bench_config(args)
    rates, temps, images = benchmark_images(config, args.seed)
    os.makedirs(args.outdir, exist_ok=True)
    files = []

    def emit(name: str, chunks):
        fileio.write_files_atomic([(os.path.join(args.outdir, name), chunks)])
        files.append(name)

    def pmap(labels, temperature: float):
        # each softened block is checked, as a ProbMap is, and cast as it is
        # written: no whole map is made
        check, classes = ProbabilityCheck(), labels.num_classes

        def blocks():
            for blk in _soften_blocks(labels, temperature):
                check.add(blk)
                yield blk.reshape(-1, classes)
            check.verdict()

        return fileio.probmap_chunks(labels.height, labels.width, classes, blocks())

    # Each image is written as it is made, its features drawn and its
    # members softened one row block at a time; only its ground truth is
    # kept, and only for the under-performers.
    gts = []
    shape = (config.height, config.width, config.classes)
    for i in range(config.images):
        # not enumerate(images): its reused result tuple would hold this
        # image while the next one is made
        gt, features, teachers = next(images)
        emit(f"img{i:03d}.gt.lmap", [fileio.write_labelmap(gt)])
        emit(f"img{i:03d}.features.npy", fileio.npy_chunks(shape, features))
        for t, labels in enumerate(teachers):
            emit(f"teacher{t:02d}.img{i:03d}.pmap", pmap(labels, temps[t]))
        if args.underperformers:
            gts.append(gt)
        del gt, teachers, labels  # before the next image is made
    for j in range(args.underperformers):
        # under00 is the under-performer `experiment robustness` adds at this seed
        for i, m in enumerate(make_underperformer_maps(gts, args.seed + j)):
            emit(f"under{j:02d}.img{i:03d}.pmap", pmap(m, UNDERPERFORMER_TEMPERATURE))
    manifest = {
        "seed": args.seed,
        "config": {**asdict(config), "underperformers": args.underperformers},
        "error_rates": [[float(v) for v in row] for row in rates],
        "temperatures": [float(v) for v in temps],
        "files": files,
    }
    fileio.write_bytes_atomic(os.path.join(args.outdir, "manifest.json"),
                              json.dumps(manifest, indent=2).encode("utf-8"))
    return 0


def _experiment_table(args) -> tuple[list[str], list[tuple]]:
    """(header, rows) of a CSV experiment kind; three run on BenchmarkConfig()."""
    if args.kind == "certainty-hist":
        return certainty_hist(BenchmarkConfig(), args.seed, args.bins)
    if args.kind == "kernel-sweep":
        return kernel_sweep(_bench_config(args), args.kappas, args.seed, args.seeds)
    tc = TrainConfig(iterations=args.iterations, seed=args.seed)
    if args.kind in ("policy-quality", "correlation"):
        driver = policy_quality if args.kind == "policy-quality" else correlation
        return driver(BenchmarkConfig(), args.seed, args.seeds, tc)
    bench = _bench_config(args)
    if args.kind == "robustness":
        return robustness(bench, args.bad_counts, args.seed, args.seeds, tc)
    return flexibility(bench, args.rounds, args.seed, tc)


def cmd_experiment(args) -> int:
    if args.kind == "prop-check":
        results = prop_checks(args.instances, args.seed)
        _emit_text(args, "\n".join(json.dumps(r) for r in results) + "\n")
    else:
        _emit_text(args, rows_to_csv(*_experiment_table(args)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON line on stderr, as main reports the rest."""

    def error(self, message):
        print(json.dumps({"error": f"{self.prog}: {message}"}), file=sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="segfuse",
        description="Fuse segmentation teacher ensembles into pseudo labels, "
        "select fusion policies without ground truth, and distill toy students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unify", help="argmax a .pmap into a hard-label .lmap; a .lmap is kept")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true",
                   help="treat the body as raw logits (any finite values) "
                   "and take their argmax")
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("fuse-pixel", help="per-pixel majority vote fusion")
    p.add_argument("inputs", nargs="+", help=".pmap (unified on the fly) or .lmap")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=cmd_fuse_pixel)

    p = sub.add_parser("fuse-channel", help="policy-driven channel-wise fusion")
    p.add_argument("inputs", nargs="+", help=".pmap (unified on the fly) or .lmap")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--kappa", type=_int, default=DEFAULT_KAPPA,
                   help="odd conflict-resolution window size (default %(default)s)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=cmd_fuse_channel)

    p = sub.add_parser("eval", help="per-class IoU pooled over image pairs")
    p.add_argument("--pred", nargs="+", required=True, metavar="LMAP",
                   help="predicted .lmap files, paired in order with --gt")
    p.add_argument("--gt", nargs="+", required=True, metavar="LMAP",
                   help="ground-truth .lmap files")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("select-policy", help="construct a fusion policy")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("random", help="uniform random teacher per class")
    m.add_argument("--classes", type=_int, required=True)
    m.add_argument("--teachers", type=_int, required=True)
    m.add_argument("--seed", type=_seed, required=True)
    m.add_argument("-o", "--output")
    m.set_defaults(func=cmd_select_policy)
    m = modes.add_parser("certainty", help="argmax of per-teacher student certainty")
    m.add_argument("--rho", nargs="+", required=True, dest="reports", metavar="JSON",
                   help="certainty (rho) report JSON files, one per teacher in order")
    m.add_argument("-o", "--output")
    m.set_defaults(func=cmd_select_policy)
    m = modes.add_parser("oracle", help="argmax of per-teacher IoU reports")
    m.add_argument("--phis", nargs="+", required=True, dest="reports", metavar="JSON",
                   help="IoU report JSON files, one per teacher in order")
    m.add_argument("-o", "--output")
    m.set_defaults(func=cmd_select_policy)

    p = sub.add_parser("distill", help="train the toy student on fused labels")
    p.add_argument("--features", required=True, help="H x W x d .npy feature file")
    p.add_argument("--labels", required=True, help="fused .lmap pseudo labels")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--iterations", type=_int, default=TrainConfig().iterations)
    p.add_argument("-o", "--output", required=True, help="model .npz output")
    p.add_argument("--probmap-out", help="also write the student's .pmap")
    p.add_argument("--trace-out", help="also write the loss trace CSV")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("synth", help="generate a synthetic benchmark directory")
    _add_bench_flags(p)
    p.add_argument("--underperformers", type=_int, default=0)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("experiment", help="run a full experiment driver")
    kinds = p.add_subparsers(dest="kind", required=True)

    def add_driver(kind, summary, bench=True, trains=True):
        q = kinds.add_parser(kind, help=summary)
        if bench:
            _add_bench_flags(q)
        q.add_argument("--seed", type=_seed, required=True)
        if trains:
            q.add_argument("--iterations", type=_int, default=200)
        q.add_argument("-o", "--output")
        q.set_defaults(func=cmd_experiment)
        return q

    q = add_driver("kernel-sweep", "mIoU gain vs conflict window size", trains=False)
    q.add_argument("--kappas", type=_ints, default="1,3,5,7,13,21,27")
    q.add_argument("--seeds", type=_int, default=10)

    q = add_driver("robustness", "mIoU vs number of under-performers")
    q.add_argument("--bad-counts", type=_ints, default="0,1,2,3")
    q.add_argument("--seeds", type=_int, default=10)

    q = add_driver("flexibility", "iterative student re-addition")
    q.add_argument("--rounds", type=_int, default=3)

    q = add_driver("policy-quality", "random vs certainty vs oracle policy", bench=False)
    q.add_argument("--seeds", type=_int, default=10)

    q = add_driver("correlation", "per-class cosine(rho, IoU)", bench=False)
    q.add_argument("--seeds", type=_int, default=3)

    q = add_driver("certainty-hist", "certainty-scale histograms", bench=False,
                   trains=False)
    q.add_argument("--bins", type=_int, default=20)

    q = add_driver("prop-check", "run generated guarantee checks", bench=False,
                   trains=False)
    q.add_argument("--instances", type=_int, default=500)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses, built at its first call, so
    after any wrapping of the ``cmd_*`` functions it dispatches to."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = args.func(args)
        for w in caught:
            print(json.dumps({"warning": str(w.message)}), file=sys.stderr)
        return rc
    except (ValueError, OverflowError, OSError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    except MemoryError as e:
        print(json.dumps({"error": f"out of memory: {e}" if str(e) else "out of memory"}),
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line surface: thin wrappers over the library plus experiment drivers.

Every command is a pure function of its inputs and flags; all randomness
enters through an explicit --seed.  Results go to stdout as JSON (or CSV
for experiment tables) unless -o is given, in which case files are written
atomically.  Validation failures and unreadable or unwritable paths exit
2 with a JSON error line on stderr, which names any input file that
fails to decode.
"""

from __future__ import annotations

import argparse
import io as _io
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import fileio
from .distill import (
    FeatureMap,
    TrainConfig,
    student_forward,
    train_student,
)
from .experiments import (
    DEFAULT_KAPPA,
    certainty_hist,
    correlation,
    flexibility,
    kernel_sweep,
    policy_quality,
    prop_checks,
    robustness,
)
from .fusion import channel_fuse, pixel_fuse
from .metrics import per_class_iou
from .policy import select_certainty, select_oracle, select_random
from .synth import BenchmarkConfig, gen_underperformer, make_benchmark
from .unify import unify
from .util import rows_to_csv


def _load(path: str, decode, *args, text: bool = False):
    """``decode(contents, *args)`` of the file at ``path``, read as UTF-8
    with ``text``; a ValueError is raised again with the path in front."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return decode(data.decode("utf-8") if text else data, *args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _load_unified(path: str, renormalize: bool = False):
    """Accept either a unified .lmap or a raw .pmap (unified on the fly)."""
    if path.endswith(".lmap"):
        return _load(path, fileio.read_labelmap)
    return unify(_load(path, fileio.read_probmap, renormalize))


def _emit_text(args, text: str) -> None:
    if getattr(args, "output", None):
        fileio.write_text_atomic(args.output, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_unify(args) -> int:
    pm = _load(args.input, fileio.read_probmap, args.renormalize)
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(unify(pm)))
    return 0


def cmd_fuse_pixel(args) -> int:
    maps = [_load_unified(p, args.renormalize) for p in args.inputs]
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(pixel_fuse(maps)))
    return 0


def cmd_fuse_channel(args) -> int:
    policy = _load(args.policy, fileio.policy_from_json, text=True)
    maps = [_load_unified(p, args.renormalize) for p in args.inputs]
    fused = channel_fuse(maps, policy, args.kappa)
    fileio.write_bytes_atomic(args.output, fileio.write_labelmap(fused))
    return 0


def cmd_eval(args) -> int:
    pred = _load(args.pred, fileio.read_labelmap)
    gt = _load(args.gt, fileio.read_labelmap)
    _emit_text(args, fileio.report_to_json(per_class_iou(pred, gt)))
    return 0


def cmd_select_policy(args) -> int:
    if args.mode == "random":
        policy = select_random(args.classes, args.teachers, args.seed)
    else:
        select = select_certainty if args.mode == "certainty" else select_oracle
        policy = select([_load(p, fileio.report_from_json, text=True) for p in args.reports])
    _emit_text(args, fileio.policy_to_json(policy))
    return 0


def _train_config(args) -> TrainConfig:
    base = TrainConfig()
    if args.config:
        base = _load(args.config, TrainConfig.from_json, text=True)
    overrides = {
        name: getattr(args, name)
        for name in ("lr", "iterations", "weight_decay", "momentum")
        if getattr(args, name) is not None
    }
    return replace(base, seed=args.seed, **overrides)


def cmd_distill(args) -> int:
    feats = _load(args.features, lambda data: FeatureMap(fileio.read_npy(data)))
    labels = _load(args.labels, fileio.read_labelmap)
    config = _train_config(args)
    result = train_student(feats, labels, config)
    buf = _io.BytesIO()
    np.savez(buf, weights=result.model.weights, bias=result.model.bias)
    fileio.write_bytes_atomic(args.output, buf.getvalue())
    if args.probmap_out:
        pm = student_forward(result.model, feats)
        fileio.write_bytes_atomic(args.probmap_out, fileio.write_probmap(pm))
    if args.trace_out:
        trace = rows_to_csv(["iter", "loss"], enumerate(result.losses))
        fileio.write_text_atomic(args.trace_out, trace)
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


#: Benchmark flag -> BenchmarkConfig field; each flag's default is the field's.
_BENCH_FLAGS = {
    "height": "height",
    "width": "width",
    "classes": "classes",
    "teachers": "num_teachers",
    "images": "images",
    "region-scale": "region_scale",
    "error-low": "error_low",
    "error-high": "error_high",
    "blob-scale": "teacher_blob_scale",
}


def _bench_config(args) -> BenchmarkConfig:
    return BenchmarkConfig(
        **{field: getattr(args, flag.replace("-", "_")) for flag, field in _BENCH_FLAGS.items()}
    )


def cmd_synth(args) -> int:
    if args.underperformers < 0:
        raise ValueError(f"--underperformers must be >= 0, got {args.underperformers}")
    config = _bench_config(args)
    bench = make_benchmark(config, args.seed)
    os.makedirs(args.outdir, exist_ok=True)
    files = []

    def emit(name: str, data: bytes):
        fileio.write_bytes_atomic(os.path.join(args.outdir, name), data)
        files.append(name)

    for i, (gt, fm) in enumerate(zip(bench.gts, bench.feats)):
        emit(f"img{i:03d}.gt.lmap", fileio.write_labelmap(gt))
        buf = _io.BytesIO()
        np.save(buf, fm.values)
        emit(f"img{i:03d}.features.npy", buf.getvalue())
        for t, maps in enumerate(bench.teacher_probs):
            emit(f"teacher{t:02d}.img{i:03d}.pmap", fileio.write_probmap(maps[i]))
    if args.underperformers:
        rng = np.random.default_rng(args.seed + 1)
        for j in range(args.underperformers):
            sub = int(rng.integers(2**63))
            for i, gt in enumerate(bench.gts):
                pm = gen_underperformer(gt, seed=sub + i)
                emit(f"under{j:02d}.img{i:03d}.pmap", fileio.write_probmap(pm))
    manifest = {
        "seed": args.seed,
        "config": {**asdict(config), "underperformers": args.underperformers},
        "error_rates": [[float(v) for v in row] for row in bench.error_rates],
        "temperatures": [float(v) for v in bench.temperatures],
        "files": files,
    }
    fileio.write_text_atomic(
        os.path.join(args.outdir, "manifest.json"), json.dumps(manifest, indent=2)
    )
    return 0


def _experiment_table(args) -> tuple[list[str], list[tuple]]:
    """(header, rows) of a CSV experiment kind; three run on BenchmarkConfig()."""
    if args.kind == "kernel-sweep":
        kappas = [int(k) for k in args.kappas.split(",")]
        return kernel_sweep(_bench_config(args), kappas, args.seed, args.seeds)
    if args.kind == "certainty-hist":
        return certainty_hist(BenchmarkConfig(), args.seed, args.bins)
    tc = TrainConfig(iterations=args.iterations, seed=args.seed)
    if args.kind == "policy-quality":
        return policy_quality(BenchmarkConfig(), args.seed, args.seeds, tc)
    if args.kind == "correlation":
        return correlation(BenchmarkConfig(), args.seed, args.seeds, tc)
    tc = replace(tc, lr=args.lr)  # only robustness and flexibility take --lr
    if args.kind == "robustness":
        bad_counts = [int(k) for k in args.bad_counts.split(",")]
        return robustness(_bench_config(args), bad_counts, args.seed, args.seeds, tc)
    return flexibility(_bench_config(args), args.rounds, args.seed, tc)


def cmd_experiment(args) -> int:
    if args.kind == "prop-check":
        results = prop_checks(
            args.prop, args.instances, args.seed,
            classes=args.classes, teachers=args.teachers,
        )
        _emit_text(args, "\n".join(json.dumps(r) for r in results) + "\n")
    else:
        _emit_text(args, rows_to_csv(*_experiment_table(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfuse",
        description="Fuse segmentation teacher ensembles into pseudo labels, "
        "select fusion policies without ground truth, and distill toy students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unify", help="argmax a .pmap into a hard-label .lmap")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true",
                   help="treat the body as raw logits and softmax on read")
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("fuse-pixel", help="per-pixel majority vote fusion")
    p.add_argument("inputs", nargs="+", help=".pmap (unified on the fly) or .lmap")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=cmd_fuse_pixel)

    p = sub.add_parser("fuse-channel", help="policy-driven channel-wise fusion")
    p.add_argument("inputs", nargs="+", help=".pmap (unified on the fly) or .lmap")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--kappa", type=int, default=DEFAULT_KAPPA,
                   help="odd conflict-resolution window size (default 13)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=cmd_fuse_channel)

    p = sub.add_parser("eval", help="per-class IoU of a prediction vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("select-policy", help="construct a fusion policy")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("random", help="uniform random teacher per class")
    m.add_argument("--classes", type=int, required=True)
    m.add_argument("--teachers", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
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
    p.add_argument("--config", help="training config JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--momentum", type=float)
    p.add_argument("-o", "--output", required=True, help="model .npz output")
    p.add_argument("--probmap-out", help="also write the student's .pmap")
    p.add_argument("--trace-out", help="also write the loss trace CSV")
    p.set_defaults(func=cmd_distill)

    def add_bench_flags(q):
        defaults = BenchmarkConfig()
        for flag, field in _BENCH_FLAGS.items():
            default = getattr(defaults, field)
            q.add_argument(f"--{flag}", type=type(default), default=default)

    p = sub.add_parser("synth", help="generate a synthetic benchmark directory")
    add_bench_flags(p)
    p.add_argument("--underperformers", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("experiment", help="run a full experiment driver")
    kinds = p.add_subparsers(dest="kind", required=True)

    def add_driver(kind, summary, bench=True, trains=True):
        q = kinds.add_parser(kind, help=summary)
        if bench:
            add_bench_flags(q)
        q.add_argument("--seed", type=int, required=True)
        if trains:
            q.add_argument("--iterations", type=int, default=200)
        q.add_argument("-o", "--output")
        q.set_defaults(func=cmd_experiment)
        return q

    q = add_driver("kernel-sweep", "mIoU gain vs conflict window size", trains=False)
    q.add_argument("--kappas", default="1,3,5,7,13,21,27")
    q.add_argument("--seeds", type=int, default=10)

    q = add_driver("robustness", "mIoU vs number of under-performers")
    q.add_argument("--lr", type=float, default=TrainConfig.lr)
    q.add_argument("--bad-counts", default="0,1,2,3")
    q.add_argument("--seeds", type=int, default=10)

    q = add_driver("flexibility", "iterative student re-addition")
    q.add_argument("--lr", type=float, default=TrainConfig.lr)
    q.add_argument("--rounds", type=int, default=3)

    q = add_driver("policy-quality", "random vs certainty vs oracle policy", bench=False)
    q.add_argument("--seeds", type=int, default=10)

    q = add_driver("correlation", "per-class cosine(rho, IoU)", bench=False)
    q.add_argument("--seeds", type=int, default=3)

    q = add_driver("certainty-hist", "certainty-scale histograms", bench=False,
                   trains=False)
    q.add_argument("--bins", type=int, default=20)

    q = add_driver("prop-check", "run generated guarantee checks", bench=False,
                   trains=False)
    q.add_argument("--prop", choices=["1", "2", "both"], default="both")
    q.add_argument("--instances", type=int, default=500)
    q.add_argument("--classes", type=int, default=4)
    q.add_argument("--teachers", type=int, default=3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
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

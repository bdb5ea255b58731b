"""Experiment drivers: synthetic-scale analogues of the headline analyses.

Each driver is a pure function of its configuration and seeds and returns
(header, rows) ready for CSV serialization, so reruns with identical
arguments produce byte-identical output files.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

from .distill import (
    TrainConfig,
    average_fuse,
    certainty_selection_protocol,
    measure_teacher,
    student_forward,
    train_student,
)
from .fusion import channel_fuse, pixel_fuse
from .metrics import certainty_histogram, certainty_iou_cosine, dataset_iou
from .policy import select_certainty, select_oracle, select_random
from .propositions import check_prop1, check_prop2, gen_prop1_instance, gen_prop2_instance
from .synth import (
    Benchmark,
    BenchmarkConfig,
    gen_underperformer,
    make_benchmark,
    make_underperformer_maps,
)
from .unify import unify

DEFAULT_KAPPA = 13


def _unified(bench: Benchmark) -> list:
    """teacher-major -> unified[t][i]"""
    return [[unify(pm) for pm in maps] for maps in bench.teacher_probs]


def _fuse_channel_all(unified, policy, kappa):
    images = len(unified[0])
    return [channel_fuse([u[i] for u in unified], policy, kappa) for i in range(images)]


def _fuse_pixel_all(unified):
    images = len(unified[0])
    return [pixel_fuse([u[i] for u in unified]) for i in range(images)]


def _teacher_reports(unified, gts) -> list:
    return [dataset_iou(maps, gts) for maps in unified]


def _seeds(base_seed: int, num_seeds: int) -> range:
    """The seeds of a multi-seed driver; an empty run would print only a header."""
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    return range(base_seed, base_seed + num_seeds)


def kernel_sweep(
    config: BenchmarkConfig,
    kappas: Sequence[int],
    base_seed: int,
    num_seeds: int,
) -> tuple[list[str], list[tuple]]:
    """Fused-label mIoU gain over kappa=1 under a random policy, per seed."""
    kappas = list(kappas)
    if 1 not in kappas:
        raise ValueError("kappa list must include 1 (the gain baseline)")
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        unified = _unified(bench)
        policy = select_random(config.classes, bench.num_teachers, seed)
        mious = {}
        for kappa in kappas:
            fused = _fuse_channel_all(unified, policy, kappa)
            mious[kappa] = dataset_iou(fused, bench.gts).miou
        for kappa in kappas:
            rows.append((kappa, seed, mious[kappa], mious[kappa] - mious[1]))
    return ["kappa", "seed", "miou", "gain"], rows


def robustness(
    config: BenchmarkConfig,
    bad_counts: Sequence[int],
    base_seed: int,
    num_seeds: int,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[list[str], list[tuple]]:
    """Pseudo-label mIoU as confidently-wrong members join the ensemble.

    The same under-performer is appended k times (re-adding one bad model),
    and three fusion routes are compared: per-pixel majority vote,
    channel-wise fusion under the certainty-aware policy, and the
    probability-averaging baseline.  Each distinct member is measured once
    per seed; a member's rho report depends on that member alone, so the
    k-member ensemble reuses those reports.
    """
    bad_counts = sorted(set(int(k) for k in bad_counts))
    if not bad_counts or bad_counts[0] < 0:
        raise ValueError(f"bad counts must be one or more ints >= 0, got {bad_counts}")
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        bad_maps = make_underperformer_maps(bench, seed)
        bad_unified = [unify(pm) for pm in bad_maps]
        good_unified = _unified(bench)
        good_rhos = [
            measure_teacher(maps, bench.feats, config=train_config)[1]
            for maps in bench.teacher_probs
        ]
        bad_rho = measure_teacher(bad_maps, bench.feats, config=train_config)[1]
        for k in bad_counts:
            unified = good_unified + [bad_unified] * k
            probs = list(bench.teacher_probs) + [bad_maps] * k

            pixel = dataset_iou(_fuse_pixel_all(unified), bench.gts).miou
            rows.append((k, "pixel", seed, pixel))

            policy = select_certainty(good_rhos + [bad_rho] * k)
            fused = _fuse_channel_all(unified, policy, DEFAULT_KAPPA)
            rows.append((k, "channel_certainty", seed, dataset_iou(fused, bench.gts).miou))

            averaged = [
                unify(average_fuse([p[i] for p in probs]))
                for i in range(config.images)
            ]
            rows.append((k, "average", seed, dataset_iou(averaged, bench.gts).miou))
    return ["bad_count", "method", "seed", "miou"], rows


def policy_quality(
    config: BenchmarkConfig,
    base_seed: int,
    num_seeds: int,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[list[str], list[tuple]]:
    """Fused-label mIoU under random, certainty-aware, and oracle policies."""
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        unified = _unified(bench)
        policies = {
            "random": select_random(config.classes, bench.num_teachers, seed),
            "certainty": certainty_selection_protocol(
                list(bench.teacher_probs), bench.feats, config=train_config
            ).policy,
            "oracle": select_oracle(_teacher_reports(unified, bench.gts)),
        }
        for name, policy in policies.items():
            fused = _fuse_channel_all(unified, policy, DEFAULT_KAPPA)
            rows.append((seed, name, dataset_iou(fused, bench.gts).miou))
    return ["seed", "policy", "miou"], rows


def correlation(
    config: BenchmarkConfig,
    base_seed: int,
    num_seeds: int,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[list[str], list[tuple]]:
    """Per-class cosine of student certainty and teacher IoU (near 1: rho tracks IoU)."""
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        reports = _teacher_reports(_unified(bench), bench.gts)
        proto = certainty_selection_protocol(list(bench.teacher_probs), bench.feats,
                                             config=train_config)
        for c, sim in enumerate(certainty_iou_cosine(proto.table, reports)):
            rows.append((seed, c, float(sim)))
    return ["seed", "class", "cosine"], rows


def certainty_hist(config: BenchmarkConfig, seed: int, bins: int) -> tuple[list[str], list]:
    """Per-pixel certainty histogram of each teacher and an under-performer, image 0."""
    bench = make_benchmark(config, seed)
    members = [(f"teacher{t}", maps[0]) for t, maps in enumerate(bench.teacher_probs)]
    members.append(("underperformer", gen_underperformer(bench.gts[0], seed=seed)))
    rows = []
    for name, pm in members:
        counts, edges = certainty_histogram(pm, bins)
        rows += [(name, edges[i], edges[i + 1], n) for i, n in enumerate(counts)]
    return ["member", "bin_low", "bin_high", "count"], rows


def flexibility(
    config: BenchmarkConfig,
    rounds: int,
    seed: int,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[list[str], list[tuple]]:
    """Iterative re-addition: each round's student joins the next ensemble.

    Members already measured or unified keep that result; each round
    measures and unifies only the member that joined since the last one.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    bench = make_benchmark(config, seed)
    ensemble = [list(maps) for maps in bench.teacher_probs]
    unified = _unified(bench)
    measured = []
    rows = []
    for r in range(1, rounds + 1):
        measured += [
            measure_teacher(maps, bench.feats, config=train_config)[1]
            for maps in ensemble[len(measured):]
        ]
        policy = select_certainty(measured)
        fused = _fuse_channel_all(unified, policy, DEFAULT_KAPPA)
        student = train_student(list(bench.feats), fused, train_config).model
        preds = [student_forward(student, f) for f in bench.feats]
        unified.append([unify(p) for p in preds])
        rows.append((r, len(ensemble), dataset_iou(unified[-1], bench.gts).miou))
        ensemble.append(preds)
    return ["round", "ensemble_size", "student_miou"], rows


def prop_checks(
    which: str,
    instances: int,
    base_seed: int,
    height: int = 12,
    width: int = 12,
    classes: int = 4,
    teachers: int = 3,
) -> list[dict]:
    """Run generated instances through the guarantee checks; JSON-ready rows."""
    if which not in ("1", "2", "both"):
        raise ValueError("which must be '1', '2', or 'both'")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    results = []
    for i in range(instances):
        seed = base_seed + i
        if which in ("1", "both"):
            inst = gen_prop1_instance(seed, height, width, classes, teachers)
            res = check_prop1(inst.unified, inst.gt, inst.policy, inst.alpha, inst.classes)
            results.append({"prop": 1, "seed": seed, **asdict(res)})
        if which in ("2", "both"):
            maps, gt = gen_prop2_instance(seed, height, width, classes, teachers)
            res2 = check_prop2(maps, gt)
            results.append({"prop": 2, "seed": seed, **asdict(res2)})
    return results

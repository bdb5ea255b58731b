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
    _blas_workers,
    average_fuse,
    measure_teacher,
    student_labels,
    train_student,
)
from .fusion import DEFAULT_KAPPA, _check_kappa, channel_fuse, pixel_fuse
from .metrics import _check_bins, certainty_histogram, certainty_iou_cosine, dataset_iou
from .policy import select_certainty, select_oracle, select_random
from .propositions import check_prop1, check_prop2, gen_prop1_instance, gen_prop2_instance
from .synth import (
    UNDERPERFORMER_TEMPERATURE,
    BenchmarkConfig,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from .unify import unify
from .util import on_threads


def _fuse_channel_all(unified, policy, kappa):
    images = len(unified[0])
    return [channel_fuse([u[i] for u in unified], policy, kappa) for i in range(images)]


def _fuse_pixel_all(unified):
    images = len(unified[0])
    return [pixel_fuse([u[i] for u in unified]) for i in range(images)]


def _measure(members, feats, train_config) -> list:
    """``measure_teacher`` of each member (its label maps) of ``members``
    on ``feats``, in member order, on one thread per core (``on_threads``):
    a member's rho depends on that member alone, and every training pins
    BLAS to one thread and cuts its own blocks, so no bit depends on the
    thread count (``_blas_workers``: one thread where BLAS cannot be
    pinned).  A failure raised is the first failing member's, as a loop's
    would be."""
    return on_threads(lambda w, labels: measure_teacher(labels, feats, config=train_config),
                      members, _blas_workers())


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
    for kappa in kappas:  # before any seed's benchmark is built
        _check_kappa(kappa)
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        unified = bench.teacher_labels
        policy = select_random(config.classes, bench.num_teachers, seed)
        mious = {}
        for kappa in kappas:
            fused = _fuse_channel_all(unified, policy, kappa)
            mious[kappa] = dataset_iou(fused, bench.gts).miou
        for kappa in kappas:
            rows.append((kappa, seed, mious[kappa], mious[kappa] - mious[1]))
    return ["kappa", "seed", "miou", "gain"], rows


def _average_image(members, temps, bad_counts) -> list:
    """The unified ``average_fuse`` of one image's members, the teachers
    then the under-performer k times, for each k of ``bad_counts``; each
    member is softened at its temperature of ``temps``.  Only this image's
    softened maps are alive, and they die on return."""
    *good, bad = [soften(m, temp) for m, temp in zip(members, temps)]
    return [unify(average_fuse(good + [bad] * k)) for k in bad_counts]


def robustness(
    config: BenchmarkConfig,
    bad_counts: Sequence[int],
    base_seed: int,
    num_seeds: int,
    train_config: TrainConfig,
) -> tuple[list[str], list[tuple]]:
    """Pseudo-label mIoU as confidently-wrong members join the ensemble.

    The same under-performer is appended k times (re-adding one bad model),
    and three fusion routes are compared: per-pixel majority vote,
    channel-wise fusion under the certainty-aware policy, and the
    probability-averaging baseline.  Each distinct member is measured once
    per seed; a member's rho report depends on that member alone, so the
    k-member ensemble reuses those labels and reports.  The members are
    softened for the average rows one image at a time (``_average_image``).
    """
    bad_counts = sorted(set(int(k) for k in bad_counts))
    if not bad_counts or bad_counts[0] < 0:
        raise ValueError(f"bad counts must be one or more ints >= 0, got {bad_counts}")
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        bad = make_underperformer_maps(bench.gts, seed)
        members = [*bench.teacher_labels, bad]
        *good_rhos, bad_rho = _measure(members, bench.feats, train_config)
        temps = [*bench.temperatures, UNDERPERFORMER_TEMPERATURE]
        # per_image[i][j]: image i's averaged labels at bad_counts[j]
        per_image = [_average_image([maps[i] for maps in members], temps, bad_counts)
                     for i in range(config.images)]
        for j, k in enumerate(bad_counts):
            unified = list(bench.teacher_labels) + [bad] * k

            pixel = dataset_iou(_fuse_pixel_all(unified), bench.gts).miou
            rows.append((k, "pixel", seed, pixel))

            policy = select_certainty(good_rhos + [bad_rho] * k)
            fused = _fuse_channel_all(unified, policy, DEFAULT_KAPPA)
            rows.append((k, "channel_certainty", seed, dataset_iou(fused, bench.gts).miou))
            averaged = [labels[j] for labels in per_image]
            rows.append((k, "average", seed, dataset_iou(averaged, bench.gts).miou))
    return ["bad_count", "method", "seed", "miou"], rows


def policy_quality(
    config: BenchmarkConfig,
    base_seed: int,
    num_seeds: int,
    train_config: TrainConfig,
) -> tuple[list[str], list[tuple]]:
    """Fused-label mIoU under random, certainty-aware, and oracle policies."""
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        unified = bench.teacher_labels
        policies = {
            "random": select_random(config.classes, bench.num_teachers, seed),
            "certainty": select_certainty(_measure(unified, bench.feats, train_config)),
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
    train_config: TrainConfig,
) -> tuple[list[str], list[tuple]]:
    """Per-class cosine of student certainty and teacher IoU (near 1: rho tracks IoU)."""
    rows = []
    for seed in _seeds(base_seed, num_seeds):
        bench = make_benchmark(config, seed)
        unified = bench.teacher_labels
        reports = _teacher_reports(unified, bench.gts)
        rhos = _measure(unified, bench.feats, train_config)
        for c, sim in enumerate(certainty_iou_cosine(rhos, reports)):
            rows.append((seed, c, float(sim)))
    return ["seed", "class", "cosine"], rows


def certainty_hist(config: BenchmarkConfig, seed: int, bins: int) -> tuple[list[str], list]:
    """Per-pixel certainty histogram on image 0 of each teacher and of synth's under00."""
    _check_bins(bins)  # before the benchmark is built
    bench = make_benchmark(config, seed)
    bad = make_underperformer_maps(bench.gts, seed)[0]
    members = [(f"teacher{t}", soften(maps[0], temp)) for t, (maps, temp)
               in enumerate(zip(bench.teacher_labels, bench.temperatures))]
    members.append(("underperformer", soften(bad, UNDERPERFORMER_TEMPERATURE)))
    rows = []
    for name, pm in members:
        counts, edges = certainty_histogram(pm, bins)
        rows += [(name, edges[i], edges[i + 1], n) for i, n in enumerate(counts)]
    return ["member", "bin_low", "bin_high", "count"], rows


def flexibility(
    config: BenchmarkConfig,
    rounds: int,
    seed: int,
    train_config: TrainConfig,
) -> tuple[list[str], list[tuple]]:
    """Iterative re-addition: each round's student joins the next ensemble.

    Members already measured keep their report; each round measures only
    the member that joined since, a student labeled by ``student_labels``.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    bench = make_benchmark(config, seed)
    unified = list(bench.teacher_labels)
    measured = []
    rows = []
    for r in range(1, rounds + 1):
        measured += _measure(unified[len(measured):], bench.feats, train_config)
        policy = select_certainty(measured)
        fused = _fuse_channel_all(unified, policy, DEFAULT_KAPPA)
        student = train_student(list(bench.feats), fused, train_config).model
        unified.append([student_labels(student, f) for f in bench.feats])
        rows.append((r, len(measured), dataset_iou(unified[-1], bench.gts).miou))
    return ["round", "ensemble_size", "student_miou"], rows


def prop_checks(instances: int, base_seed: int) -> list[dict]:
    """Run generated instances through both guarantee checks; JSON-ready rows."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    results = []
    for i in range(instances):
        seed = base_seed + i
        inst = gen_prop1_instance(seed)
        res = check_prop1(inst.unified, inst.gt, inst.policy, inst.alpha, inst.classes)
        results.append({"prop": 1, "seed": seed, **asdict(res)})
        maps, gt = gen_prop2_instance(seed)
        results.append({"prop": 2, "seed": seed, **asdict(check_prop2(maps, gt))})
    return results

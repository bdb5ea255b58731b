"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criteria 7, 8, and 10 are directional reproductions on
the standard synthetic benchmark (64x64, 8 classes, 4 mixed-quality
teachers); full-scale reference numbers are context, not assertions.
"""

import time
from collections import Counter, defaultdict

import numpy as np

from segfuse.core import UNLABELED_ID, FusionPolicy, LabelMap, ProbMap
from segfuse.distill import (
    FeatureMap,
    ToyStudent,
    TrainConfig,
    ce_loss_and_grads,
    kl_loss_and_grads,
    measure_teacher,
)
from segfuse.experiments import kernel_sweep, policy_quality, robustness
from segfuse.fusion import build_channel_sets, channel_fuse, pixel_fuse
from segfuse.metrics import certainty_iou_cosine, dataset_iou
from segfuse.policy import select_oracle
from segfuse.propositions import check_prop1, check_prop2, gen_prop1_instance, gen_prop2_instance
from segfuse.synth import BenchmarkConfig, gen_ground_truth, make_benchmark
from segfuse.unify import unify
from helpers import softmax


def _report(num: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} {name}: {detail} [{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_c01_pixel_fusion_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(1000):
        teachers = int(rng.integers(1, 6))
        classes = int(rng.integers(2, 6))
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        maps = [
            LabelMap(rng.integers(0, classes, size=(h, w)), classes)
            for _ in range(teachers)
        ]
        fused = pixel_fuse(maps).values
        for i in range(h):
            for j in range(w):
                counts = Counter(int(m.values[i, j]) for m in maps)
                top = max(counts.values())
                want = min(c for c, n in counts.items() if n == top)
                if fused[i, j] != want:
                    mismatches += 1
    _report(
        1, "pixel fusion oracle equivalence", mismatches == 0,
        f"1000 instances, {mismatches} mismatches", started, 5.0,
    )


def _zero_overlap_instances(count: int):
    """Mix of shared-map (random policy) and specialist (argmax policy) cases."""
    out = []
    for seed in range(count):
        if seed % 2 == 0:
            inst = gen_prop1_instance(seed)
            out.append((inst.unified, inst.gt, inst.policy))
        else:
            maps, gt = gen_prop2_instance(seed)
            policy = select_oracle([dataset_iou([m], [gt]) for m in maps])
            out.append((maps, gt, policy))
    return out


def test_c02_channel_fusion_identity_on_zero_overlap():
    started = time.perf_counter()
    bad = 0
    for maps, gt, policy in _zero_overlap_instances(200):
        assert not build_channel_sets(maps, policy).overlap.any()
        fused_iou = dataset_iou([channel_fuse(maps, policy, 13)], [gt]).per_class
        for c in range(gt.num_classes):
            teacher_iou = dataset_iou([maps[policy.teacher_for(c)]], [gt]).per_class[c]
            if np.isnan(fused_iou[c]) != np.isnan(teacher_iou):
                bad += 1
            elif not np.isnan(fused_iou[c]) and fused_iou[c] != teacher_iou:
                bad += 1
    _report(
        2, "channel fusion identity", bad == 0,
        f"200 zero-overlap instances, {bad} per-class mismatches", started, 5.0,
    )


def test_c03_lower_bound_guarantee():
    started = time.perf_counter()
    unmet, violations = 0, 0
    for seed in range(500):
        inst = gen_prop1_instance(seed)
        res = check_prop1(inst.unified, inst.gt, inst.policy, inst.alpha, inst.classes)
        if not res.precondition_met:
            unmet += 1
        elif not res.holds:
            violations += 1
    ok = unmet == 0 and violations == 0
    _report(
        3, "fused mIoU lower bound", ok,
        f"500 instances, {unmet} hypothesis misses, {violations} bound violations",
        started, 30.0,
    )


def test_c04_argmax_policy_dominance():
    started = time.perf_counter()
    unmet, violations = 0, 0
    for seed in range(500):
        maps, gt = gen_prop2_instance(seed)
        res = check_prop2(maps, gt)
        if not res.precondition_met:
            unmet += 1
        elif not res.holds:
            violations += 1
    ok = unmet == 0 and violations == 0
    _report(
        4, "argmax policy dominates every teacher", ok,
        f"500 instances, {unmet} overlap misses, {violations} violations",
        started, 30.0,
    )


def test_c05_certainty_scale_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    eye = np.eye(4)
    stable = 0
    for _ in range(100):
        gt, _ = gen_ground_truth(16, 16, 4, region_scale=4, seed=int(rng.integers(2**31)))
        labels = [
            LabelMap(rng.integers(0, 4, size=(16, 16)), 4) for _ in range(2)
        ]
        policy = FusionPolicy(rng.integers(0, 3, size=4), 3)
        base_logits = eye[gt.values.astype(np.intp)]
        outputs = []
        for temp in (0.1, 1.0, 10.0):
            scaled = ProbMap(softmax(base_logits / temp))
            u = unify(scaled)
            px = pixel_fuse([u] + labels)
            ch = channel_fuse([u] + labels, policy, 13)
            outputs.append((u.values, px.values, ch.values))
        same = all(
            np.array_equal(outputs[0][k], outputs[i][k])
            for i in (1, 2)
            for k in range(3)
        )
        stable += same
    _report(
        5, "temperature scale invariance", stable == 100,
        f"{stable}/100 instances bit-identical across T in {{0.1, 1, 10}}",
        started, 60.0,
    )


def _fd_max_rel_error(loss_fn, model, rng, coords=20, step=1e-4):
    loss, gw, gb = loss_fn(model)
    worst = 0.0
    for _ in range(coords):
        if rng.random() < 0.7:
            idx = (int(rng.integers(gw.shape[0])), int(rng.integers(gw.shape[1])))
            analytic = gw[idx]
            w_hi, w_lo = model.weights.copy(), model.weights.copy()
            w_hi[idx] += step
            w_lo[idx] -= step
            f_hi = loss_fn(ToyStudent(w_hi, model.bias))[0]
            f_lo = loss_fn(ToyStudent(w_lo, model.bias))[0]
        else:
            idx = int(rng.integers(gb.shape[0]))
            analytic = gb[idx]
            b_hi, b_lo = model.bias.copy(), model.bias.copy()
            b_hi[idx] += step
            b_lo[idx] -= step
            f_hi = loss_fn(ToyStudent(model.weights, b_hi))[0]
            f_lo = loss_fn(ToyStudent(model.weights, b_lo))[0]
        fd = (f_hi - f_lo) / (2 * step)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12))
    return worst


def test_c06_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    feats = FeatureMap(rng.normal(size=(10, 10, 5)))
    labels = rng.integers(0, 4, size=(10, 10))
    labels[rng.random((10, 10)) < 0.15] = UNLABELED_ID
    labels = LabelMap(labels, 4)
    raw = rng.random((10, 10, 4)) + 0.05
    target = ProbMap(raw / raw.sum(2, keepdims=True))
    model = ToyStudent(rng.normal(scale=0.4, size=(4, 5)), rng.normal(size=4))

    ce_err = _fd_max_rel_error(
        lambda m: ce_loss_and_grads(m, feats, labels), model, rng
    )
    kl_err = _fd_max_rel_error(
        lambda m: kl_loss_and_grads(m, feats, target), model, rng
    )
    ok = ce_err < 1e-4 and kl_err < 1e-4
    _report(
        6, "analytic gradients vs finite differences", ok,
        f"max rel err: ce {ce_err:.2e}, kl {kl_err:.2e}",
        started, 10.0,
    )


STANDARD = BenchmarkConfig()


def test_c07_robustness_direction():
    started = time.perf_counter()
    tc = TrainConfig(iterations=120, seed=0)
    header, rows = robustness(STANDARD, [0, 1, 2, 3], 0, 10, tc)
    agg = defaultdict(list)
    for k, method, seed, miou in rows:
        agg[(k, method)].append(miou)
    pixel = {k: float(np.mean(agg[(k, "pixel")])) for k in range(4)}
    channel = {k: float(np.mean(agg[(k, "channel_certainty")])) for k in range(4)}
    drop = pixel[0] - pixel[3]
    drift = abs(channel[0] - channel[3])
    ok = drop >= 0.05 and drift <= 0.015 and channel[3] > pixel[3]
    _report(
        7, "robustness to under-performers", ok,
        f"pixel drop {drop:.3f} (>=0.05), channel drift {drift:.4f} (<=0.015), "
        f"channel@3 {channel[3]:.3f} > pixel@3 {pixel[3]:.3f}",
        started, 300.0,
    )


def test_c08_policy_quality_ordering_and_gap():
    started = time.perf_counter()
    tc = TrainConfig(iterations=200, seed=0)
    header, rows = policy_quality(STANDARD, 0, 10, tc)
    by = defaultdict(dict)
    for seed, name, miou in rows:
        by[seed][name] = miou
    ordered = sum(
        d["random"] <= d["certainty"] <= d["oracle"] for d in by.values()
    )
    rnd = float(np.mean([d["random"] for d in by.values()]))
    cert = float(np.mean([d["certainty"] for d in by.values()]))
    tgt = float(np.mean([d["oracle"] for d in by.values()]))
    recovery = (cert - rnd) / (tgt - rnd)
    ok = ordered >= 9 and recovery >= 0.9
    _report(
        8, "certainty policy quality", ok,
        f"ordering {ordered}/10 seeds, gap recovery {recovery:.2f} "
        f"(rnd {rnd:.3f}, cert {cert:.3f}, oracle {tgt:.3f})",
        started, 300.0,
    )


def test_c09_certainty_iou_correlation():
    started = time.perf_counter()
    tc = TrainConfig(iterations=200, seed=0)
    positives, total = 0, 0
    for seed in range(3):
        bench = make_benchmark(STANDARD, seed)
        unified = bench.teacher_labels
        reports = [dataset_iou(maps, bench.gts) for maps in unified]
        rhos = [measure_teacher(m, bench.feats, config=tc) for m in unified]
        sims = certainty_iou_cosine(rhos, reports)
        positives += int((sims > 0).sum())
        total += sims.size
    ok = positives / total >= 0.9
    _report(
        9, "certainty/IoU positive correlation", ok,
        f"{positives}/{total} classes with cosine > 0", started, 120.0,
    )


def test_c10_kernel_sweep_gains():
    started = time.perf_counter()
    kappas = [1, 3, 5, 7, 13, 21, 27]
    header, rows = kernel_sweep(STANDARD, kappas, 0, 10)
    gains = defaultdict(list)
    zero_at_one = True
    for kappa, seed, miou, gain in rows:
        gains[kappa].append(gain)
        if kappa == 1 and gain != 0.0:
            zero_at_one = False
    means = {k: float(np.mean(v)) for k, v in gains.items()}
    best_k = max((k for k in kappas if k > 1), key=lambda k: means[k])
    ok = zero_at_one and means[best_k] > 0.0
    summary = ", ".join(f"k{k}:{means[k]:+.3f}" for k in kappas)
    _report(
        10, "conflict-window sweep", ok,
        f"{summary} (full-scale reference: +0.73 at k=13, +0.09 at k=27)",
        started, 120.0,
    )


def test_c11_cli_determinism(tmp_path):
    started = time.perf_counter()
    from segfuse.cli import main

    small = [
        "--height", "16", "--width", "16", "--classes", "4", "--teachers", "2",
        "--images", "2", "--region-scale", "4",
    ]
    invocations = [
        ["experiment", "kernel-sweep", "--kappas", "1,3", "--seeds", "2",
         "--seed", "0"] + small,
        ["experiment", "robustness", "--bad-counts", "0,1", "--seeds", "1",
         "--seed", "1", "--iterations", "25"] + small,
        ["experiment", "flexibility", "--rounds", "2", "--seed", "2",
         "--iterations", "25"] + small,
        ["experiment", "prop-check", "--instances", "30", "--seed", "3"],
    ]
    identical = True
    for n, args in enumerate(invocations):
        out_a = tmp_path / f"a{n}.out"
        out_b = tmp_path / f"b{n}.out"
        assert main(args + ["-o", str(out_a)]) == 0
        assert main(args + ["-o", str(out_b)]) == 0
        if out_a.read_bytes() != out_b.read_bytes():
            identical = False
    _report(
        11, "experiment rerun determinism", identical,
        f"{len(invocations)} experiment invocations byte-identical", started, 120.0,
    )

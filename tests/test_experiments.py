"""Experiment-driver behavior on a small fast benchmark."""

import numpy as np
import pytest

from segfuse.distill import (
    TrainConfig,
    average_fuse,
    certainty_selection_protocol,
    measure_teacher,
    student_forward,
    train_student,
)
from segfuse.experiments import flexibility, kernel_sweep, prop_checks, robustness
from segfuse.metrics import certainty_report, dataset_iou
from segfuse.fusion import channel_fuse, pixel_fuse
from segfuse.synth import BenchmarkConfig, make_benchmark, make_underperformer_maps
from segfuse.unify import unify

FAST = BenchmarkConfig(
    height=24, width=24, classes=4, num_teachers=3, images=3, region_scale=5
)
TC = TrainConfig(lr=0.5, iterations=60, seed=0)


class TestKernelSweep:
    def test_gain_at_one_is_exactly_zero(self):
        header, rows = kernel_sweep(FAST, [1, 3, 5], 0, 3)
        for kappa, seed, miou, gain in rows:
            if kappa == 1:
                assert gain == 0.0

    def test_matches_manual_fuse_eval_per_kappa(self):
        from segfuse.policy import select_random

        header, rows = kernel_sweep(FAST, [1, 5], 7, 1)
        bench = make_benchmark(FAST, 7)
        unified = [[unify(pm) for pm in maps] for maps in bench.teacher_probs]
        policy = select_random(FAST.classes, FAST.num_teachers, 7)
        for kappa, seed, miou, gain in rows:
            fused = [
                channel_fuse([u[i] for u in unified], policy, kappa)
                for i in range(FAST.images)
            ]
            assert miou == dataset_iou(fused, bench.gts).miou

    def test_requires_baseline_kappa(self):
        with pytest.raises(ValueError):
            kernel_sweep(FAST, [3, 5], 0, 1)


class TestRobustness:
    def test_k_zero_evaluates_clean_ensemble(self):
        header, rows = robustness(FAST, [0], 0, 1, TC)
        methods = {method for k, method, seed, miou in rows}
        assert methods == {"pixel", "channel_certainty", "average"}

    def test_channel_curve_flat_when_policy_avoids_underperformers(self):
        header, rows = robustness(FAST, [0, 2], 0, 2, TC)
        # verify the certainty policy indeed never selects an appended bad
        # teacher, then the fused mIoU must be identical across k
        for seed in (0, 1):
            bench = make_benchmark(FAST, seed)
            bad = make_underperformer_maps(bench, seed)
            probs = list(bench.teacher_probs) + [bad] * 2
            proto = certainty_selection_protocol(probs, bench.feats, config=TC)
            assert (proto.policy.assignment < FAST.num_teachers).all()
        by = {}
        for k, method, seed, miou in rows:
            if method == "channel_certainty":
                by.setdefault(seed, {})[k] = miou
        for seed, vals in by.items():
            assert vals[0] == vals[2]

    def test_pixel_fusion_degrades_with_bad_members(self):
        header, rows = robustness(FAST, [0, 3], 0, 3, TC)
        px = {k: [] for k in (0, 3)}
        for k, method, seed, miou in rows:
            if method == "pixel":
                px[k].append(miou)
        assert np.mean(px[3]) < np.mean(px[0])


def fuse_channel(unified, policy):
    return [channel_fuse([u[i] for u in unified], policy, 13) for i in range(len(unified[0]))]


def robustness_reference(config, bad_counts, base_seed, num_seeds, tc):
    """Every member trained again for every k, through the full protocol."""
    rows = []
    for seed in range(base_seed, base_seed + num_seeds):
        bench = make_benchmark(config, seed)
        bad = make_underperformer_maps(bench, seed)
        for k in bad_counts:
            probs = list(bench.teacher_probs) + [bad] * k
            unified = [[unify(pm) for pm in maps] for maps in probs]
            pixel = [pixel_fuse([u[i] for u in unified]) for i in range(config.images)]
            policy = certainty_selection_protocol(probs, bench.feats, config=tc).policy
            averaged = [
                unify(average_fuse([p[i] for p in probs])) for i in range(config.images)
            ]
            rows += [
                (k, "pixel", seed, dataset_iou(pixel, bench.gts).miou),
                (k, "channel_certainty", seed,
                 dataset_iou(fuse_channel(unified, policy), bench.gts).miou),
                (k, "average", seed, dataset_iou(averaged, bench.gts).miou),
            ]
    return rows


def flexibility_reference(config, rounds, seed, tc):
    """The full protocol rerun over the whole ensemble every round."""
    bench = make_benchmark(config, seed)
    ensemble = [list(maps) for maps in bench.teacher_probs]
    rows = []
    for r in range(1, rounds + 1):
        policy = certainty_selection_protocol(ensemble, bench.feats, config=tc).policy
        unified = [[unify(pm) for pm in maps] for maps in ensemble]
        student = train_student(list(bench.feats), fuse_channel(unified, policy), tc).model
        preds = [student_forward(student, f) for f in bench.feats]
        rows.append((r, len(ensemble), dataset_iou([unify(p) for p in preds], bench.gts).miou))
        ensemble = ensemble + [preds]
    return rows


class TestMeasureOnce:
    """Drivers that measure each distinct member once match a full rerun."""

    def test_robustness_matches_per_k_protocol(self):
        header, rows = robustness(FAST, [0, 1, 3], 0, 2, TC)
        assert rows == robustness_reference(FAST, [0, 1, 3], 0, 2, TC)

    def test_flexibility_matches_full_protocol_each_round(self):
        header, rows = flexibility(FAST, 3, 0, TC)
        assert rows == flexibility_reference(FAST, 3, 0, TC)

    def test_measure_teacher_students_equal_protocol_students(self):
        bench = make_benchmark(FAST, 0)
        proto = certainty_selection_protocol(list(bench.teacher_probs), bench.feats, config=TC)
        for maps, student in zip(bench.teacher_probs, proto.students):
            model, rho = measure_teacher(maps, bench.feats, config=TC)
            assert np.array_equal(model.weights, student.weights)
            assert np.array_equal(model.bias, student.bias)
            # FAST's 3 images hold out one for measurement
            want = certainty_report(student_forward(student, bench.feats[0])).per_class
            assert np.array_equal(rho.per_class, want, equal_nan=True)


class TestFlexibility:
    def test_rounds_grow_the_ensemble(self):
        header, rows = flexibility(FAST, 2, 0, TC)
        assert [r[0] for r in rows] == [1, 2]
        assert rows[1][1] == rows[0][1] + 1

    def test_unifies_each_map_once(self, monkeypatch):
        from segfuse import experiments

        calls = []
        monkeypatch.setattr(
            experiments, "unify", lambda pm: calls.append(1) or unify(pm)
        )
        rounds = 3
        flexibility(FAST, rounds, 0, TC)
        # every teacher map, then each round's student predictions, once each
        assert len(calls) == (FAST.num_teachers + rounds) * FAST.images

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            flexibility(FAST, 0, 0, TC)


class TestPropChecks:
    def test_rows_are_json_ready_and_satisfied(self):
        results = prop_checks("both", 10, 0)
        assert len(results) == 20
        for r in results:
            assert r["precondition_met"] is True
            assert set(r) >= {"prop", "seed"}

    def test_rejects_unknown_prop(self):
        with pytest.raises(ValueError):
            prop_checks("3", 5, 0)

import numpy as np
import pytest

from segfuse.core import FusionPolicy, LabelMap
from segfuse.fusion import build_channel_sets
from segfuse.metrics import dataset_iou
from segfuse.policy import select_oracle
from segfuse.propositions import (
    check_prop1,
    check_prop2,
    gen_prop1_instance,
    gen_prop2_instance,
)


def lmap(rows, classes):
    return LabelMap(np.array(rows), classes)


class TestCheckProp1:
    def hand_instance(self):
        # 3 classes on a 3x3 grid; both teachers share one map whose
        # classes 0 and 1 have IoU >= 0.6 against gt.
        gt = lmap([[0, 0, 1], [0, 0, 1], [2, 2, 1]], 3)
        pred = lmap([[0, 0, 1], [0, 2, 1], [2, 2, 1]], 3)
        # IoU: class0 = 3/4, class1 = 3/3, class2 = 2/3
        maps = [pred, pred]
        policy = FusionPolicy(np.array([0, 1, 0]), 2)
        return maps, gt, policy

    @pytest.mark.parametrize("alpha, classes, message", [
        pytest.param(1.0, [0], "alpha must lie in [0, 1)", id="alpha-one"),
        pytest.param(-0.1, [0], "alpha must lie in [0, 1)", id="alpha-negative"),
        pytest.param(0.5, [0, 3], "listed classes out of range", id="class-too-high"),
        pytest.param(0.5, [-1], "listed classes out of range", id="class-negative"),
    ])
    def test_validation_messages(self, alpha, classes, message):
        maps, gt, policy = self.hand_instance()
        with pytest.raises(ValueError) as err:
            check_prop1(maps, gt, policy, alpha=alpha, classes=classes)
        assert str(err.value) == message

    def test_two_strong_classes_bound_holds(self):
        maps, gt, policy = self.hand_instance()
        res = check_prop1(maps, gt, policy, alpha=0.6, classes=[0, 1])
        assert res.precondition_met
        assert res.bound == pytest.approx(2 * 0.6 / 3)
        # fused equals the shared map: mIoU = (3/4 + 1 + 2/3) / 3
        assert res.miou == pytest.approx((3 / 4 + 1 + 2 / 3) / 3)
        assert res.holds is True

    def test_alpha_zero_vacuous_bound(self):
        maps, gt, policy = self.hand_instance()
        res = check_prop1(maps, gt, policy, alpha=0.0, classes=[0])
        assert res.precondition_met and res.bound == 0.0 and res.holds is True

    def test_overlap_breaks_precondition(self):
        # teachers disagree so the selected channels overlap
        gt = lmap([[0, 1]], 2)
        t0 = lmap([[0, 0]], 2)
        t1 = lmap([[1, 0]], 2)  # t1 labels p0 as 1; t0 labels p0 as 0
        policy = FusionPolicy(np.array([0, 1]), 2)
        assert build_channel_sets([t0, t1], policy).overlap.any()
        res = check_prop1([t0, t1], gt, policy, alpha=0.0, classes=[0])
        assert not res.precondition_met
        assert res.holds is None

    def test_weak_class_breaks_precondition(self):
        maps, gt, policy = self.hand_instance()
        res = check_prop1(maps, gt, policy, alpha=0.9, classes=[0, 1])
        assert not res.precondition_met  # class 0 IoU 0.75 < 0.9

    def test_generated_instances_satisfy_hypothesis(self):
        for seed in range(50):
            inst = gen_prop1_instance(seed)
            res = check_prop1(inst.unified, inst.gt, inst.policy, inst.alpha, inst.classes)
            assert res.precondition_met, f"seed {seed} failed the hypothesis"
            assert res.holds is True, f"seed {seed} violated the bound"


class TestCheckProp2:
    def test_single_teacher_equality(self):
        rng = np.random.default_rng(0)
        gt = LabelMap(rng.integers(0, 3, size=(6, 6)), 3)
        teacher = LabelMap(rng.integers(0, 3, size=(6, 6)), 3)
        res = check_prop2([teacher], gt)
        assert res.precondition_met
        assert res.fused_miou == pytest.approx(res.max_teacher_miou)
        assert res.holds

    def test_complementary_specialists_reach_perfect_fusion(self):
        gt = lmap([[0, 0, 1, 1]], 2)
        t0 = lmap([[0, 0, 0, 0]], 2)  # perfect on class 0, never claims 1...
        t1 = lmap([[1, 1, 1, 1]], 2)  # perfect on class 1 via oracle pick
        # oracle: class0 -> t0 (IoU 1 vs 0 undefined/0), class1 -> t1
        res = check_prop2([t0, t1], gt)
        assert res.precondition_met is False  # A_0={p0,p1,p2,p3} overlaps A_1
        # build a truly disjoint pair instead
        t0 = lmap([[0, 0, 1, 1]], 2)
        t1 = lmap([[0, 0, 1, 1]], 2)
        res = check_prop2([t0, t1], gt)
        assert res.precondition_met and res.fused_miou == 1.0 and res.holds

    def test_overlap_reported_but_comparison_still_runs(self):
        gt = lmap([[0, 1]], 2)
        t0 = lmap([[0, 0]], 2)
        t1 = lmap([[1, 1]], 2)
        res = check_prop2([t0, t1], gt)
        assert res.precondition_met is False
        assert isinstance(res.holds, bool)

    def test_generated_instances_zero_overlap_and_hold(self):
        for seed in range(50):
            maps, gt = gen_prop2_instance(seed)
            reports = [dataset_iou([m], [gt]) for m in maps]
            policy = select_oracle(reports)
            assert not build_channel_sets(maps, policy).overlap.any(), seed
            res = check_prop2(maps, gt)
            assert res.precondition_met, seed
            assert res.holds, seed

    def test_generator_produces_specialist_mode(self):
        distinct = 0
        for seed in range(20):
            maps, _ = gen_prop2_instance(seed)
            if any(
                not np.array_equal(maps[0].values, m.values) for m in maps[1:]
            ):
                distinct += 1
        assert distinct > 0

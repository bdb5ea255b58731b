import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.core import UNLABELED_ID, IoUReport, LabelMap, ProbMap
from segfuse.metrics import (
    certainty_histogram,
    certainty_iou_cosine,
    certainty_report,
    dataset_iou,
    per_class_iou,
)

from helpers import reports_from_matrix


def lmap(rows, classes):
    return LabelMap(np.array(rows), classes)


def confusion_iou_oracle(pred, gt, classes):
    """Confusion-matrix IoU with exact integer arithmetic."""
    cm = np.zeros((classes + 1, classes), dtype=np.int64)  # last row: unlabeled
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            p = int(pred[i, j])
            row = classes if p == UNLABELED_ID else p
            cm[row, int(gt[i, j])] += 1
    out = np.full(classes, np.nan)
    for c in range(classes):
        inter = cm[c, c]
        union = cm[c, :].sum() + cm[:classes, c].sum() - inter + cm[classes, c]
        if union > 0:
            out[c] = inter / union
    return out


class TestPerClassIoU:
    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        m = LabelMap(rng.integers(0, 3, size=(5, 5)), 3)
        r = per_class_iou(m, m)
        present = np.unique(m.values)
        for c in present:
            assert r.per_class[c] == 1.0
        assert r.miou == 1.0

    def test_hand_counted_example(self):
        pred = lmap([[0, 0], [1, 1]], 2)
        gt = lmap([[0, 1], [1, 1]], 2)
        r = per_class_iou(pred, gt)
        assert r.per_class[0] == pytest.approx(1 / 2)
        assert r.per_class[1] == pytest.approx(2 / 3)
        assert r.miou == pytest.approx(7 / 12)

    def test_all_unlabeled_prediction_scores_zero(self):
        pred = LabelMap(np.full((3, 3), UNLABELED_ID), 3)
        gt = lmap([[0, 1, 2]] * 3, 3)
        r = per_class_iou(pred, gt)
        assert (r.per_class == 0).all()

    def test_absent_from_both_is_undefined(self):
        pred = lmap([[0, 1]], 3)
        gt = lmap([[0, 1]], 3)
        r = per_class_iou(pred, gt)
        assert np.isnan(r.per_class[2])
        assert r.miou == 1.0

    def test_rejects_unlabeled_gt(self):
        with pytest.raises(ValueError):
            per_class_iou(lmap([[0]], 2), LabelMap(np.array([[UNLABELED_ID]]), 2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            per_class_iou(lmap([[0]], 2), lmap([[0, 1]], 2))

    def test_symmetric_under_simultaneous_relabeling(self):
        rng = np.random.default_rng(8)
        classes = 4
        pred = rng.integers(0, classes, size=(6, 6))
        gt = rng.integers(0, classes, size=(6, 6))
        perm = rng.permutation(classes)
        base = per_class_iou(LabelMap(pred, classes), LabelMap(gt, classes))
        relab = per_class_iou(
            LabelMap(perm[pred], classes), LabelMap(perm[gt], classes)
        )
        inv = np.argsort(perm)
        np.testing.assert_array_equal(
            np.nan_to_num(base.per_class, nan=-1),
            np.nan_to_num(relab.per_class[perm], nan=-1),
        )

    @given(st.integers(0, 10**6), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_confusion_matrix_oracle(self, seed, classes, with_unlabeled):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, classes, size=(6, 7))
        if with_unlabeled:
            pred[rng.random((6, 7)) < 0.3] = UNLABELED_ID
        gt = rng.integers(0, classes, size=(6, 7))
        got = per_class_iou(LabelMap(pred, classes), LabelMap(gt, classes)).per_class
        want = confusion_iou_oracle(pred, gt, classes)
        np.testing.assert_array_equal(
            np.nan_to_num(got, nan=-1), np.nan_to_num(want, nan=-1)
        )

    def test_dataset_iou_pools_counts(self):
        pred1, gt1 = lmap([[0, 0]], 2), lmap([[0, 1]], 2)
        pred2, gt2 = lmap([[1, 1]], 2), lmap([[0, 1]], 2)
        pooled = dataset_iou([pred1, pred2], [gt1, gt2])
        # class 0: inter 1, union pred{2}+gt{2}-1 = 3; class 1: inter 1, union 3
        assert pooled.per_class[0] == pytest.approx(1 / 3)
        assert pooled.per_class[1] == pytest.approx(1 / 3)


def prob(rows):
    return ProbMap(np.array(rows, dtype=np.float64))


def rho_of(preds):
    return certainty_report(preds).per_class


class TestCertaintyReport:
    def test_single_class_predictor(self):
        # class 0 predicted everywhere at 0.8 -> rho(0)=0.8, others undefined
        pm = prob([[[0.8, 0.1, 0.1], [0.8, 0.15, 0.05]]])
        rho = rho_of(pm)
        assert rho[0] == pytest.approx(0.8)
        assert np.isnan(rho[1]) and np.isnan(rho[2])

    def test_uniform_student_ties_to_class_zero(self):
        pm = prob([[[0.25] * 4] * 3] * 2)
        rho = rho_of(pm)
        assert rho[0] == pytest.approx(0.25)
        assert np.isnan(rho[1:]).all()

    def test_matches_scalar_accumulation_oracle(self):
        rng = np.random.default_rng(21)
        raw = rng.random((8, 8, 4))
        pm = ProbMap(raw / raw.sum(axis=2, keepdims=True))
        rho = rho_of([pm])
        sums = np.zeros(4)
        counts = np.zeros(4)
        for i in range(8):
            for j in range(8):
                c = int(np.argmax(pm.values[i, j]))
                sums[c] += pm.values[i, j, c]
                counts[c] += 1
        for c in range(4):
            if counts[c]:
                assert rho[c] == pytest.approx(sums[c] / counts[c], rel=1e-12)
            else:
                assert np.isnan(rho[c])

    def test_accumulates_across_measurement_images(self):
        a = prob([[[0.9, 0.1]]])
        b = prob([[[0.7, 0.3]]])
        assert rho_of([a, b])[0] == pytest.approx(0.8)

    def test_rejects_empty_measurement_set(self):
        with pytest.raises(ValueError, match="empty measurement"):
            certainty_report([])


class TestCertaintyIoUCosine:
    def test_proportional_rows_give_one(self):
        rhos = reports_from_matrix([[0.2, 0.4, 0.6]])
        phis = [IoUReport(np.array([v])) for v in (0.1, 0.2, 0.3)]
        sim = certainty_iou_cosine(rhos, phis)
        assert sim[0] == pytest.approx(1.0)

    def test_orthogonal_rows_give_zero(self):
        rhos = reports_from_matrix([[1.0, 0.0]])
        phis = [IoUReport(np.array([0.0])), IoUReport(np.array([1.0]))]
        assert certainty_iou_cosine(rhos, phis)[0] == pytest.approx(0.0)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(12)
        rho = rng.random((5, 3))
        phi = rng.random((5, 3))
        sim = certainty_iou_cosine(reports_from_matrix(rho), reports_from_matrix(phi))
        for c in range(5):
            want = rho[c] @ phi[c] / (np.linalg.norm(rho[c]) * np.linalg.norm(phi[c]))
            assert sim[c] == pytest.approx(want, rel=1e-12)

    def test_zero_norm_row_is_undefined(self):
        rhos = reports_from_matrix([[np.nan, np.nan]])
        phis = [IoUReport(np.array([0.5])), IoUReport(np.array([0.25]))]
        assert np.isnan(certainty_iou_cosine(rhos, phis)[0])

    def test_undefined_cells_count_as_zero(self):
        rhos = reports_from_matrix([[0.5, np.nan]])
        phis = [IoUReport(np.array([0.5])), IoUReport(np.array([0.0]))]
        assert certainty_iou_cosine(rhos, phis)[0] == pytest.approx(1.0)


class TestCertaintyHistogram:
    def test_all_certain_mass_in_last_bin(self):
        pm = prob([[[1.0, 0.0], [1.0, 0.0]]])
        counts, edges = certainty_histogram(pm, 10)
        assert counts[-1] == 2 and counts[:-1].sum() == 0

    def test_uniform_predictor_mass_in_quarter_bin(self):
        pm = prob([[[0.25] * 4] * 5] * 4)
        counts, edges = certainty_histogram(pm, 10)
        assert counts[2] == 20  # 0.25 falls in [0.2, 0.3)
        assert counts.sum() == 20

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(31)
        raw = rng.random((7, 9, 3))
        pm = ProbMap(raw / raw.sum(axis=2, keepdims=True))
        bins = 8
        counts, edges = certainty_histogram(pm, bins)
        peak = pm.values.max(axis=2)
        manual = np.zeros(bins, dtype=int)
        for v in peak.ravel():
            idx = min(int(v * bins), bins - 1)
            manual[idx] += 1
        np.testing.assert_array_equal(counts, manual)
        assert counts.sum() == 63

    def test_rejects_bad_bins(self):
        pm = prob([[[0.5, 0.5]]])
        with pytest.raises(ValueError):
            certainty_histogram(pm, 0)

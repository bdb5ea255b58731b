import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.core import UNLABELED_ID, IoUReport, LabelMap, ProbMap
from segfuse.metrics import (
    certainty_histogram,
    certainty_iou_cosine,
    dataset_iou,
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
        r = dataset_iou([m], [m])
        present = np.unique(m.values)
        for c in present:
            assert r.per_class[c] == 1.0
        assert r.miou == 1.0

    def test_hand_counted_example(self):
        pred = lmap([[0, 0], [1, 1]], 2)
        gt = lmap([[0, 1], [1, 1]], 2)
        r = dataset_iou([pred], [gt])
        assert r.per_class[0] == pytest.approx(1 / 2)
        assert r.per_class[1] == pytest.approx(2 / 3)
        assert r.miou == pytest.approx(7 / 12)

    def test_all_unlabeled_prediction_scores_zero(self):
        pred = LabelMap(np.full((3, 3), UNLABELED_ID), 3)
        gt = lmap([[0, 1, 2]] * 3, 3)
        r = dataset_iou([pred], [gt])
        assert (r.per_class == 0).all()

    def test_absent_from_both_is_undefined(self):
        pred = lmap([[0, 1]], 3)
        gt = lmap([[0, 1]], 3)
        r = dataset_iou([pred], [gt])
        assert np.isnan(r.per_class[2])
        assert r.miou == 1.0

    def test_rejects_unlabeled_gt(self):
        with pytest.raises(ValueError):
            dataset_iou([lmap([[0]], 2)], [LabelMap(np.array([[UNLABELED_ID]]), 2)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dataset_iou([lmap([[0]], 2)], [lmap([[0, 1]], 2)])

    def test_symmetric_under_simultaneous_relabeling(self):
        rng = np.random.default_rng(8)
        classes = 4
        pred = rng.integers(0, classes, size=(6, 6))
        gt = rng.integers(0, classes, size=(6, 6))
        perm = rng.permutation(classes)
        base = dataset_iou([LabelMap(pred, classes)], [LabelMap(gt, classes)])
        relab = dataset_iou(
            [LabelMap(perm[pred], classes)], [LabelMap(perm[gt], classes)]
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
        got = dataset_iou([LabelMap(pred, classes)], [LabelMap(gt, classes)]).per_class
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

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_pooled_equals_the_stacked_image(self, seed, images):
        # pooling counts over pairs is the IoU of the images stacked into one
        rng = np.random.default_rng(seed)
        preds = [rng.integers(0, 3, size=(4, 5)) for _ in range(images)]
        gts = [rng.integers(0, 3, size=(4, 5)) for _ in range(images)]
        pooled = dataset_iou([LabelMap(p, 3) for p in preds], [LabelMap(g, 3) for g in gts])
        want = confusion_iou_oracle(np.vstack(preds), np.vstack(gts), 3)
        np.testing.assert_array_equal(
            np.nan_to_num(pooled.per_class, nan=-1), np.nan_to_num(want, nan=-1)
        )

    @pytest.mark.parametrize("preds, gts, want", [
        (1, 2, "need equally many predictions and ground truths, got 1 and 2"),
        (0, 0, "need equally many predictions and ground truths, got 0 and 0"),
    ])
    def test_rejects_a_count_mismatch(self, preds, gts, want):
        m = lmap([[0, 1]], 2)
        with pytest.raises(ValueError) as e:
            dataset_iou([m] * preds, [m] * gts)
        assert str(e.value) == want

    def test_rejects_class_counts_that_differ_across_pairs(self):
        with pytest.raises(ValueError, match="class counts differ across image pairs"):
            dataset_iou([lmap([[0, 1]], 2), lmap([[0, 1]], 3)],
                        [lmap([[0, 1]], 2), lmap([[0, 1]], 3)])


def prob(rows):
    return ProbMap(np.array(rows, dtype=np.float64))


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
        # bins + 1 edges would overflow np.intp inside np.linspace
        with pytest.raises(ValueError, match="bins must be"):
            certainty_histogram(pm, int(np.iinfo(np.intp).max))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: certainty_iou_cosine(reports_from_matrix([[0.5, 0.5]]),
                                              [IoUReport(np.array([0.5]))]),
                 "need one IoU report per teacher (2), got 1", id="cosine-count"),
    pytest.param(lambda: certainty_iou_cosine(reports_from_matrix([[0.5]]),
                                              [IoUReport(np.array([0.5, 0.5]))]),
                 "IoU reports disagree with the certainty reports' class count",
                 id="cosine-classes"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message

import numpy as np
import pytest

from segfuse.core import (
    UNLABELED_ID,
    FusionPolicy,
    IoUReport,
    LabelMap,
    ProbMap,
)


def uniform_probmap(h, w, c):
    return ProbMap(np.full((h, w, c), 1.0 / c))


class TestClassSet:
    """Range checks on a label map's class count."""

    def test_accepts_valid(self):
        for count in (2, 19, UNLABELED_ID):
            assert LabelMap(np.zeros((1, 1), dtype=int), count).num_classes == count

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            LabelMap(np.zeros((1, 1), dtype=int), 1)

    def test_rejects_count_beyond_16_bit_storage(self):
        with pytest.raises(ValueError, match="16-bit"):
            LabelMap(np.zeros((1, 1), dtype=int), UNLABELED_ID + 1)


class TestProbMap:
    def test_valid_uniform(self):
        pm = uniform_probmap(2, 3, 4)
        assert (pm.height, pm.width, pm.num_classes) == (2, 3, 4)

    def test_rejects_bad_sum(self):
        v = np.full((1, 1, 2), 0.45)  # sums to 0.9
        with pytest.raises(ValueError, match="sum"):
            ProbMap(v)

    def test_rejects_out_of_range(self):
        v = np.array([[[1.2, -0.2]]])
        with pytest.raises(ValueError):
            ProbMap(v)

    def test_rejects_nan(self):
        v = np.array([[[np.nan, 1.0]]])
        with pytest.raises(ValueError):
            ProbMap(v)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([np.nan, 1.0], "probability map contains non-finite values"),
            ([np.inf, 0.0], "probability map contains non-finite values"),
            ([-np.inf, 1.0], "probability map contains non-finite values"),
            ([-0.25, 1.25], "probabilities must lie in [0, 1]"),
            ([1.5, -0.5], "probabilities must lie in [0, 1]"),
            ([np.nan, -0.5], "probability map contains non-finite values"),
        ],
    )
    def test_error_messages(self, bad, message):
        v = np.full((2, 3, 2), 0.5)
        v[1, 2] = bad
        with pytest.raises(ValueError) as err:
            ProbMap(v)
        assert str(err.value) == message

    def test_tolerates_small_drift(self):
        v = np.array([[[0.5 + 4e-5, 0.5]]])
        ProbMap(v)  # within 1e-4

    def test_values_read_only(self):
        pm = uniform_probmap(2, 2, 2)
        with pytest.raises(ValueError):
            pm.values[0, 0, 0] = 0.3


class TestLabelMap:
    def test_valid_with_unlabeled(self):
        lm = LabelMap(np.array([[0, 1], [2, UNLABELED_ID]]), 3)
        assert lm.unlabeled_mask().sum() == 1

    def test_rejects_id_equal_to_count(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0, 3]]), 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0, -1]]), 3)

    def test_rejects_float_values(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0.0, 1.0]]), 3)

    def test_stores_uint16(self):
        lm = LabelMap(np.array([[0, 1]], dtype=np.int64), 2)
        assert lm.values.dtype == np.uint16


class TestFusionPolicy:
    def test_total_in_bounds(self):
        p = FusionPolicy(np.array([0, 1, 0]), 2)
        assert p.num_classes == 3
        assert p.teacher_for(1) == 1

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            FusionPolicy(np.array([0, 2]), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FusionPolicy(np.array([], dtype=int), 2)


class TestIoUReport:
    def test_miou_ignores_undefined(self):
        r = IoUReport(np.array([0.5, np.nan, 1.0]))
        assert r.miou == pytest.approx(0.75)

    def test_all_undefined_is_nan(self):
        assert np.isnan(IoUReport(np.array([np.nan, np.nan])).miou)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IoUReport(np.array([1.5]))


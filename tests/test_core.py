import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import fileio
from segfuse.core import (
    PROB_SUM_TOL,
    UNLABELED_ID,
    FusionPolicy,
    IoUReport,
    LabelMap,
    ProbMap,
)

from helpers import check_whole


def uniform_probmap(h, w, c):
    return ProbMap(np.full((h, w, c), 1.0 / c))


# One bad probability vector in a 2 x 3 x 2 map, and the error it must raise.
BAD_PIXELS = [
    ([np.nan, 1.0], "probability map contains non-finite values"),
    ([np.inf, 0.0], "probability map contains non-finite values"),
    ([-np.inf, 1.0], "probability map contains non-finite values"),
    ([-0.25, 1.25], "probabilities must lie in [0, 1]"),
    ([1.5, -0.5], "probabilities must lie in [0, 1]"),
    ([np.nan, -0.5], "probability map contains non-finite values"),
]


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

    @pytest.mark.parametrize("bad, message", BAD_PIXELS)
    def test_error_messages(self, bad, message):
        v = np.full((2, 3, 2), 0.5)
        v[1, 2] = bad
        with pytest.raises(ValueError) as err:
            ProbMap(v)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad, message", BAD_PIXELS)
    def test_error_messages_on_a_float32_file_body(self, bad, message):
        """fileio.read_labels runs the same check on a .pmap's float32 body."""
        v = np.full((2, 3, 2), 0.5, dtype="<f4")
        v[1, 2] = bad
        data = fileio._HEADER.pack(b"PMAP", 1, 2, 3, 2) + v.tobytes()
        with pytest.raises(ValueError) as err:
            fileio.read_labels(data)
        assert str(err.value) == message

    def test_tolerates_small_drift(self):
        v = np.array([[[0.5 + 4e-5, 0.5]]])
        ProbMap(v)  # within 1e-4

    def test_values_read_only(self):
        pm = uniform_probmap(2, 2, 2)
        with pytest.raises(ValueError):
            pm.values[0, 0, 0] = 0.3


def exact_check(v):
    """The reference: the range test, then the per-pixel sums in float64."""
    if not (v.min() >= 0.0 and v.max() <= 1.0):
        if not np.isfinite(v).all():
            raise ValueError("probability map contains non-finite values")
        raise ValueError("probabilities must lie in [0, 1]")
    dev = np.abs(v.sum(axis=2, dtype=np.float64) - 1.0).max()
    if dev > PROB_SUM_TOL:
        raise ValueError(
            f"per-pixel probabilities must sum to 1 (worst deviation {dev:.3e})"
        )


def outcome(check, v):
    try:
        check(v)
    except ValueError as e:
        return str(e)
    return None


@st.composite
def near_tolerance_maps(draw):
    """A map whose one pixel sums to within 3 % of 1 +- PROB_SUM_TOL."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    c = draw(st.sampled_from([2, 19, 255, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.random((2, 3, c)) + 1e-3
    v /= v.sum(axis=2, keepdims=True)
    side = draw(st.sampled_from([-1.0, 1.0]))
    target = 1.0 + side * PROB_SUM_TOL * draw(st.floats(0.97, 1.03))
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 2))
    v[i, j] *= target / v[i, j].sum()
    return v.astype(dtype)


class TestCheckProbabilities:
    """The screened sum gives the exact float64 check's verdict and message."""

    @given(near_tolerance_maps())
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_message_as_the_exact_sum(self, v):
        assert outcome(check_whole, v) == outcome(exact_check, v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [2, 19, 255, 1000])
    def test_uniform_maps_pass(self, dtype, c):
        check_whole(np.full((4, 5, c), 1.0 / c, dtype=dtype))


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

    def test_keeps_a_map_over_bytes_without_copying(self):
        data = np.array([[0, 1], [2, UNLABELED_ID]], dtype=np.uint16).tobytes()
        ids = np.frombuffer(data, np.uint16).reshape(2, 2)
        lm = LabelMap(ids, 3)
        assert np.shares_memory(lm.values, ids)
        assert not lm.values.flags.writeable

    def test_copies_a_writable_caller_array(self):
        ids = np.array([[0, 1], [2, UNLABELED_ID]], dtype=np.uint16)
        lm = LabelMap(ids, 3)
        assert not np.shares_memory(lm.values, ids)
        assert ids.flags.writeable
        ids[0, 0] = 2
        assert lm.values[0, 0] == 0

    @pytest.mark.parametrize("memory", ["ndarray", "bytearray"])
    def test_copies_a_read_only_view_of_writable_memory(self, memory):
        ids = np.array([[0, 1], [2, UNLABELED_ID]], dtype=np.uint16)
        if memory == "bytearray":
            ids = np.frombuffer(bytearray(ids.tobytes()), np.uint16).reshape(2, 2)
        view = ids.view()
        view.setflags(write=False)
        lm = LabelMap(view, 3)
        assert not np.shares_memory(lm.values, ids)
        ids[0, 0] = 2
        assert lm.values[0, 0] == 0

    def test_range_check_peak_with_unlabeled_pixels(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 19, size=(256, 512)).astype(np.uint16)
        ids[rng.random(ids.shape) < 0.1] = UNLABELED_ID
        data = ids.tobytes()
        del ids
        view = np.frombuffer(data, np.uint16).reshape(256, 512)
        tracemalloc.start()
        try:
            LabelMap(view, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * len(data)


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


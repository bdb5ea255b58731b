import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import unify
from segfuse.core import ProbMap
from segfuse.util import _BLOCK_BYTES


def probmap_from_rows(rows):
    """rows: list of per-pixel probability vectors, laid out 1 x N."""
    return ProbMap(np.array([rows], dtype=np.float64))


def argmax_scan_oracle(values):
    """Independent per-pixel max scan with explicit smallest-index ties."""
    h, w, c = values.shape
    out = np.zeros((h, w), dtype=np.uint16)
    for i in range(h):
        for j in range(w):
            best, best_p = 0, values[i, j, 0]
            for k in range(1, c):
                if values[i, j, k] > best_p:
                    best, best_p = k, values[i, j, k]
            out[i, j] = best
    return out


class TestUnify:
    def test_unique_argmax(self):
        pm = probmap_from_rows([[0.2, 0.5, 0.3]])
        assert unify(pm).values[0, 0] == 1

    def test_tie_goes_to_smallest_index(self):
        pm = probmap_from_rows([[0.5, 0.5, 0.0]])
        assert unify(pm).values[0, 0] == 0

    def test_matches_max_scan_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.random((4, 4, 5))
        probs = raw / raw.sum(axis=2, keepdims=True)
        pm = ProbMap(probs)
        assert np.array_equal(unify(pm).values, argmax_scan_oracle(pm.values))

    def test_no_unlabeled_output(self):
        rng = np.random.default_rng(5)
        raw = rng.random((6, 7, 3))
        pm = ProbMap(raw / raw.sum(axis=2, keepdims=True))
        assert not unify(pm).unlabeled_mask().any()

    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_argmax_preserving_transform_is_invisible(self, seed, gamma):
        # Power rescaling (= softmax temperature change in log space) keeps
        # the per-pixel ordering; unify output must be bit-identical.
        rng = np.random.default_rng(seed)
        # probabilities on a coarse grid so the transform cannot reorder
        raw = rng.integers(1, 16, size=(5, 5, 4)).astype(np.float64)
        probs = raw / raw.sum(axis=2, keepdims=True)
        pm = ProbMap(probs)
        warped = probs**gamma
        warped = ProbMap(warped / warped.sum(axis=2, keepdims=True))
        assert np.array_equal(unify(pm).values, unify(warped).values)


class TestUnifyMemory:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_peak_is_the_labels_and_one_block(self, layout):
        # a read-only map, and one kept as the strided view of a W x H x C
        # array (where a reshape to pixel rows copies it), is copied one row
        # block at a time, never whole
        raw = np.random.default_rng(0).random((256, 512, 19)) + 1e-3
        raw /= raw.sum(axis=2, keepdims=True)
        if layout == "transposed":
            raw = np.ascontiguousarray(raw.transpose(1, 0, 2)).transpose(1, 0, 2)
        pm = ProbMap(raw)
        assert pm.values.flags.c_contiguous == (layout == "contiguous")
        tracemalloc.start()
        try:
            labels = unify(pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels.values, pm.values.argmax(axis=2))
        assert peak < labels.values.nbytes + 2 * _BLOCK_BYTES + 64 * 1024

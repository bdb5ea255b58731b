import ast
import io
import os
import stat
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import fileio, util
from segfuse.distill import TrainConfig, _row_blocks, _TrainingBlocks, train_rows, train_student
from segfuse.core import (
    UNLABELED_ID,
    FeatureMap,
    FusionPolicy,
    IoUReport,
    LabelMap,
    ProbMap,
)
from segfuse.synth import BenchmarkConfig, make_benchmark, soften
from segfuse.unify import unify

from helpers import (feature_rows_whole, in_fresh_interpreter, npy_bytes, random_labelmap,
                     read_labels_whole, read_probmap, write_probmap)

HEADER = struct.Struct("<4sIIIH")


def random_probmap(rng, h, w, c):
    # float32-representable probabilities so round trips are bit-exact
    raw = rng.random((h, w, c)).astype(np.float32).astype(np.float64) + 1e-3
    probs = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    return ProbMap(probs.astype(np.float64))


class TestProbMapCodec:
    def test_single_pixel_example(self):
        body = struct.pack("<2f", 0.6, 0.4)
        data = HEADER.pack(b"PMAP", 1, 1, 1, 2) + body
        pm = read_probmap(data)
        assert pm.values.shape == (1, 1, 2)
        np.testing.assert_allclose(pm.values[0, 0], [0.6, 0.4], atol=1e-7)

    def test_roundtrip_identity_on_file_bytes(self):
        rng = np.random.default_rng(0)
        pm = random_probmap(rng, 3, 4, 5)
        data = write_probmap(pm)
        assert write_probmap(read_probmap(data)) == data

    @pytest.mark.parametrize("shape", [(1, 1, 2), (3, 5, 4), (7, 2, 19)])
    def test_write_bytes_equal_header_plus_float32_body(self, shape):
        rng = np.random.default_rng(sum(shape))
        raw = rng.random(shape) + 1e-3  # float64 values that float32 must round
        pm = ProbMap(raw / raw.sum(axis=2, keepdims=True))
        want = HEADER.pack(b"PMAP", 1, *shape) + pm.values.astype("<f4").tobytes()
        assert write_probmap(pm) == want

    def test_blocks_are_cast_in_whole_row_slices_of_about_one_chunk(self):
        step = util._BLOCK_BYTES // (4 * 19)  # rows of 19 float32 classes
        sizes = [1, step - 1, step, 2 * step + 3, 0, 5]
        rng = np.random.default_rng(0)
        blocks = [rng.random((n, 19)) for n in sizes]
        header, *body = fileio.probmap_chunks(1, sum(sizes), 19, blocks)
        assert header == HEADER.pack(b"PMAP", 1, 1, sum(sizes), 19)
        assert [len(c) for c in body] == [1, step - 1, step, step, step, 3, 5]
        assert all(c.dtype == "<f4" and c.flags.c_contiguous for c in body)
        assert max(c.nbytes for c in body) <= util._BLOCK_BYTES
        assert b"".join(body) == np.concatenate(blocks).astype("<f4").tobytes()

    def test_class_count_must_fit_the_u16_header_field(self):
        with pytest.raises(ValueError) as err:
            next(fileio.probmap_chunks(1, 1, 65536, []))
        assert str(err.value) == "class count 65536 does not fit the u16 header field"

    def test_bad_sum_rejected_without_renormalize(self):
        body = struct.pack("<2f", 0.45, 0.45)  # sums to 0.9
        data = HEADER.pack(b"PMAP", 1, 1, 1, 2) + body
        with pytest.raises(ValueError, match="sum"):
            fileio.read_labels(data)
        assert fileio.read_labels(data, logits=True).values.tolist() == [[0]]

    def test_logits_are_argmaxed_without_a_softmax(self):
        logits = np.array([[[2.0, 0.0, -1.0], [-3.0, 7.5, 7.0]]], dtype=np.float32)
        data = HEADER.pack(b"PMAP", 1, 1, 2, 3) + logits.tobytes()
        assert fileio.read_labels(data, logits=True).values.tolist() == [[0, 1]]

    def test_bad_magic(self):
        data = HEADER.pack(b"XMAP", 1, 1, 1, 2) + struct.pack("<2f", 0.5, 0.5)
        with pytest.raises(ValueError, match="magic"):
            fileio.read_labels(data)

    def test_dimension_overflow(self):
        data = HEADER.pack(b"PMAP", 1, 2**31 - 1, 2**31 - 1, 255)
        with pytest.raises(ValueError, match="overflow"):
            fileio.read_labels(data)

    # The byte budget is 2**31 bytes, counted as a float64 H x W x C map for
    # a .pmap and as uint16 H x W labels for a .lmap.  A header at the
    # budget reaches the body check; one just past it is refused first.
    @pytest.mark.parametrize("magic, width, message", [
        (b"PMAP", 2**27, "body"),
        (b"PMAP", 2**27 + 1, "overflow"),
        (b"LMAP", 2**30, "body"),
        (b"LMAP", 2**30 + 1, "overflow"),
    ])
    def test_byte_budget_is_checked_before_the_body(self, magic, width, message):
        data = HEADER.pack(magic, 1, 1, width, 2) + b"\x00" * 8
        decoders = {
            b"PMAP": [fileio.read_labels, lambda d: fileio.read_labels(d, logits=True)],
            b"LMAP": [fileio.read_labelmap],
        }[magic]
        for decode in decoders:
            with pytest.raises(ValueError, match=message):
                decode(data)

    @pytest.mark.parametrize("logits", [False, True], ids=["read_labels", "logits"])
    def test_cityscapes_size_header_reaches_the_body_check(self, logits):
        data = HEADER.pack(b"PMAP", 1, 1024, 2048, 19) + b"\x00" * 8
        with pytest.raises(ValueError) as err:
            fileio.read_labels(data, logits)
        assert str(err.value) == f"body is 8 bytes, header implies {1024 * 2048 * 19 * 4}"

    def test_body_length_mismatch(self):
        data = HEADER.pack(b"PMAP", 1, 2, 2, 2) + b"\x00" * 8
        with pytest.raises(ValueError, match="body"):
            fileio.read_labels(data)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_header_field_fuzz(self, word, pos):
        rng = np.random.default_rng(7)
        data = bytearray(write_probmap(random_probmap(rng, 2, 2, 3)))
        offset = 4 * pos  # corrupt magic/version/H/W
        original = data[offset:offset + 4]
        data[offset:offset + 4] = struct.pack("<I", word)
        if bytes(data[offset:offset + 4]) == bytes(original):
            return
        with pytest.raises(ValueError):
            fileio.read_labels(bytes(data))

    @pytest.mark.parametrize("classes", [1, 2, 4, 200])
    def test_class_count_corruption_rejected(self, classes):
        rng = np.random.default_rng(8)
        data = bytearray(write_probmap(random_probmap(rng, 2, 2, 3)))
        data[16:18] = struct.pack("<H", classes)  # true count is 3
        with pytest.raises(ValueError):
            fileio.read_labels(bytes(data))


class TestLabelMapCodec:
    def test_2x2_byte_level_oracle(self):
        lm = LabelMap(np.array([[0, 1], [2, UNLABELED_ID]]), 3)
        data = fileio.write_labelmap(lm)
        expected = HEADER.pack(b"LMAP", 1, 2, 2, 3) + struct.pack(
            "<4H", 0, 1, 2, UNLABELED_ID
        )
        assert data == expected
        back = fileio.read_labelmap(data)
        assert np.array_equal(back.values, lm.values)
        assert fileio.write_labelmap(back) == data

    def test_out_of_range_id_rejected(self):
        data = HEADER.pack(b"LMAP", 1, 1, 2, 3) + struct.pack("<2H", 0, 3)
        with pytest.raises(ValueError):
            fileio.read_labelmap(data)

    @given(st.integers(0, 2**32), st.integers(2, 6), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_maps(self, seed, c, h, w):
        rng = np.random.default_rng(seed)
        lm = random_labelmap(rng, h, w, c)
        data = fileio.write_labelmap(lm)
        assert fileio.write_labelmap(fileio.read_labelmap(data)) == data

    @given(st.integers(0, 2**32), st.integers(2, 5), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_probmap_roundtrip_random(self, seed, c, h, w):
        rng = np.random.default_rng(seed)
        pm = random_probmap(rng, h, w, c)
        data = write_probmap(pm)
        assert write_probmap(read_probmap(data)) == data


_SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.25, -1e-30, 1.5, 1.0 + 2**-23]


@st.composite
def pmap_files(draw):
    """.pmap bytes with random probabilities, then a few edited pixels:
    exact ties, sums near the 1e-4 tolerance, and non-finite or out-of-range
    cells."""
    h, w, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((h, w, c)) + 1e-3
    v = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        kind = draw(st.sampled_from(["tie", "drift", "special"]))
        if kind == "tie":
            tied = draw(st.permutations(range(c)))[:draw(st.integers(2, c))]
            v[i, j] = 0.0
            v[i, j, tied] = np.float32(1.0 / len(tied))
        elif kind == "drift":
            v[i, j] *= np.float32(1.0 + draw(st.floats(-2e-4, 2e-4)))
        else:
            v[i, j, draw(st.integers(0, c - 1))] = draw(st.sampled_from(_SPECIAL))
    return HEADER.pack(b"PMAP", 1, h, w, c) + v.astype("<f4").tobytes()


class TestReadLabels:
    """read_labels(data) is unify(read_probmap(data)), without the float64 map;
    with logits, it is the argmax of the body's float64 copy."""

    @staticmethod
    def assert_same_as_unify(data):
        try:
            want = unify(read_probmap(data))
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                fileio.read_labels(data)
            assert str(err.value) == str(e)
        else:
            got = fileio.read_labels(data)
            assert got.num_classes == want.num_classes
            np.testing.assert_array_equal(got.values, want.values)

    @given(pmap_files())
    @settings(max_examples=300, deadline=None)
    def test_same_labels_or_error_as_unify(self, data):
        self.assert_same_as_unify(data)

    @given(pmap_files())
    @settings(max_examples=300, deadline=None)
    def test_logit_labels_are_the_float64_argmax(self, data):
        _, _, h, w, c = HEADER.unpack_from(data)
        body = np.frombuffer(data, "<f4", offset=HEADER.size).reshape(h, w, c)
        if not np.isfinite(body).all():
            with pytest.raises(ValueError, match="^logit body contains non-finite values$"):
                fileio.read_labels(data, logits=True)
        else:
            want = np.argmax(body.astype(np.float64), axis=2)
            np.testing.assert_array_equal(fileio.read_labels(data, logits=True).values, want)

    def test_ties_go_to_the_smallest_class_id(self):
        body = struct.pack("<6f", 0.0, 0.5, 0.5, 1 / 3, 1 / 3, 1 / 3)
        data = HEADER.pack(b"PMAP", 1, 1, 2, 3) + body
        assert fileio.read_labels(data).values.tolist() == [[1, 0]]

    def test_equal_logits_go_to_the_smallest_class_id(self):
        body = struct.pack("<6f", -4.0, 2.5, 2.5, 7.0, 7.0, 7.0)
        data = HEADER.pack(b"PMAP", 1, 1, 2, 3) + body
        assert fileio.read_labels(data, logits=True).values.tolist() == [[1, 0]]

    def test_logits_that_exp_rounds_to_a_tie_keep_their_order(self):
        # exp(-1e-30) == exp(0) in float64, so a softmax would tie these and
        # give class 0; the logits themselves put class 1 first.
        data = HEADER.pack(b"PMAP", 1, 1, 1, 2) + struct.pack("<2f", -1e-30, 0.0)
        assert fileio.read_labels(data, logits=True).values.tolist() == [[1]]

    def test_large_synth_set(self):
        config = BenchmarkConfig(height=256, width=512, classes=19, num_teachers=4,
                                 images=4, region_scale=32, teacher_blob_scale=16)
        bench = make_benchmark(config, seed=1)
        maps = [soften(labels, temp) for member, temp in zip(bench.teacher_labels,
                                                             bench.temperatures)
                for labels in member]
        assert len(maps) == 16
        for pm in maps:
            data = bytes(write_probmap(pm))
            want = unify(read_probmap(data)).values
            np.testing.assert_array_equal(fileio.read_labels(data).values, want)

    @staticmethod
    def peak_of_read(source):
        """tracemalloc peak in bytes of ``read_labels(source)``, and the labels."""
        tracemalloc.start()
        try:
            labels = fileio.read_labels(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, labels

    def test_peak_memory_is_about_one_body(self):
        pm = ProbMap(np.full((256, 512, 19), 1.0 / 19))
        data = bytes(write_probmap(pm))
        del pm
        peak, labels = self.peak_of_read(data)
        assert labels.values.shape == (256, 512)
        assert peak / (len(data) - HEADER.size) < 1.25

    def test_a_file_is_read_one_chunk_at_a_time(self, tmp_path):
        # the peak is one chunk, its argmax ids and the labels, not the body
        path = tmp_path / "t.pmap"
        path.write_bytes(write_probmap(ProbMap(np.full((256, 512, 19), 1.0 / 19))))
        with open(path, "rb") as fh:
            peak, labels = self.peak_of_read(fh)
        assert labels.values.shape == (256, 512)
        assert peak < 2 * util._BLOCK_BYTES + labels.values.nbytes
        assert peak / (path.stat().st_size - HEADER.size) < 0.1

    def test_peak_grows_only_by_the_labels(self):
        peaks = {}
        for rows in (64, 512):
            raw = np.random.default_rng(rows).random((rows, 512, 19)) + 1e-3
            body = (raw / raw.sum(axis=2, keepdims=True)).astype("<f4").tobytes()
            del raw
            data = HEADER.pack(b"PMAP", 1, rows, 512, 19) + body
            del body
            peaks[rows], labels = self.peak_of_read(data)
            assert labels.values.shape == (rows, 512)
        # the extra labels, and the float32 row sums of one more whole chunk
        # (the 64-row map's last chunk is a partial one)
        assert peaks[512] <= peaks[64] + (512 - 64) * 512 * 2 + 4 * _chunk_pixels(19)

    @pytest.mark.parametrize("logits", [False, True], ids=["read_labels", "logits"])
    def test_a_huge_header_sizes_no_array(self, logits):
        # a header of 2**27 pixels over an 8-byte body: no labels, no map
        data = HEADER.pack(b"PMAP", 1, 1, 2**27, 2) + b"\x00" * 8
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^body is 8 bytes, header implies {2**30}$"):
                fileio.read_labels(data, logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class Trickle:
    """A binary stream over ``data`` whose reads return at most ``piece``
    bytes, as reads from a pipe may."""

    def __init__(self, data: bytes, piece: int):
        self.data, self.pos, self.piece = memoryview(data), 0, piece

    def readinto(self, buf) -> int:
        n = min(len(buf), self.piece, len(self.data) - self.pos)
        buf[:n] = self.data[self.pos : self.pos + n]
        self.pos += n
        return n


def _chunk_pixels(c: int) -> int:
    """Pixels in one of ``read_labels``' chunks at ``c`` classes."""
    return util._BLOCK_BYTES // (4 * c)


@st.composite
def chunked_pmap_files(draw):
    """.pmap bytes sized around ``read_labels``' chunk (1 pixel, one chunk
    less or more one pixel, whole chunks, anything up to three chunks),
    with faults placed in chosen chunks, then maybe a body cut inside a
    chunk or at a chunk boundary, or trailing bytes."""
    c = draw(st.sampled_from([2, 3, 19]))
    step = _chunk_pixels(c)
    pixels = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step, 3 * step - 1])
                  | st.integers(1, 3 * step))
    width = draw(st.sampled_from([d for d in (1, 2, 3, 5, 7) if pixels % d == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((pixels, c)) + 1e-3
    v = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
    for _ in range(draw(st.integers(0, 3))):
        chunk = draw(st.integers(0, (pixels - 1) // step))
        i = draw(st.integers(chunk * step, min(pixels, (chunk + 1) * step) - 1))
        kind = draw(st.sampled_from(["tie", "drift", "sum", "special"]))
        if kind == "tie":
            v[i] = 0.0
            v[i, :2] = 0.5
        elif kind == "drift":
            v[i] *= np.float32(1.0 + draw(st.floats(-2e-4, 2e-4)))
        elif kind == "sum":
            v[i] *= np.float32(draw(st.sampled_from([0.5, 0.99, 1.01])))
        else:
            v[i, draw(st.integers(0, c - 1))] = draw(st.sampled_from(_SPECIAL))
    body = v.astype("<f4").tobytes()
    cut = draw(st.sampled_from(["none", "inside", "boundary", "trailing"]))
    if cut == "inside":
        body = body[: draw(st.integers(0, len(body) - 1))]
    elif cut == "boundary":
        body = body[: draw(st.integers(0, (pixels - 1) // step)) * step * 4 * c]
    elif cut == "trailing":
        body += bytes(draw(st.sampled_from([1, 4 * c, 4 * c * step + 3])))
    return HEADER.pack(b"PMAP", 1, pixels // width, width, c) + body


class TestChunkedReads:
    """read_labels over chunks gives the labels or the exact error of the
    decode of the whole buffer, however the body is cut into chunks and
    however short the stream's reads are."""

    @staticmethod
    def assert_same_as_whole(source, data, logits):
        try:
            want = read_labels_whole(data, logits)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                fileio.read_labels(source, logits)
            assert str(err.value) == str(e)
        else:
            got = fileio.read_labels(source, logits)
            assert got.num_classes == want.num_classes
            np.testing.assert_array_equal(got.values, want.values)

    @given(chunked_pmap_files(), st.booleans(), st.sampled_from([5, 1000, 65537]))
    @settings(max_examples=150, deadline=None)
    def test_same_labels_or_error_as_the_whole_decode(self, data, logits, piece):
        self.assert_same_as_whole(data, data, logits)
        self.assert_same_as_whole(Trickle(data, max(piece, len(data) // 1000)), data, logits)

    @staticmethod
    def three_chunks(c=19):
        """A valid body of three whole chunks at ``c`` classes, as a float32 array."""
        raw = np.random.default_rng(c).random((3 * _chunk_pixels(c), c)) + 1e-3
        return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)

    @pytest.mark.parametrize("faults, message", [
        ([(0, "sum"), (2, "nan")], "non-finite"),
        ([(0, "sum"), (2, "range")], "lie in"),
        ([(0, "range"), (2, "nan")], "non-finite"),
        ([(0, "nan")], "non-finite"),
        ([(2, "range")], "lie in"),
        ([(0, "sum"), (2, "bigger-sum")], "worst deviation 2.000e-02"),
        ([(2, "bigger-sum"), (0, "sum")], "worst deviation 2.000e-02"),
    ])
    def test_faults_in_later_chunks_decide_as_in_the_whole_body(self, faults, message):
        v = self.three_chunks()
        step = _chunk_pixels(19)
        for chunk, kind in faults:
            i = chunk * step + step // 2 if chunk < 2 else len(v) - 1
            if kind == "nan":
                v[i, 3] = np.nan
            elif kind == "range":
                v[i, 3] = 1.5
            else:
                v[i] *= np.float32(1.01 if kind == "sum" else 1.02)
        data = HEADER.pack(b"PMAP", 1, 3, step, 19) + v.tobytes()
        with pytest.raises(ValueError, match=message):
            read_labels_whole(data)
        self.assert_same_as_whole(data, data, False)

    @pytest.mark.parametrize("logits", [False, True], ids=["read_labels", "logits"])
    @pytest.mark.parametrize("pixels", [1, 0, -1], ids=["chunk+1px", "chunk", "chunk-1px"])
    def test_one_chunk_give_or_take_a_pixel(self, pixels, logits):
        v = self.three_chunks()[: _chunk_pixels(19) + pixels]
        data = HEADER.pack(b"PMAP", 1, 1, len(v), 19) + v.tobytes()
        np.testing.assert_array_equal(fileio.read_labels(data, logits).values,
                                      v.argmax(axis=1)[None])


def _row_chunk(dims: int, itemsize: int) -> int:
    """Pixels in one of ``read_feature_rows``' chunks."""
    return max(1, util._BLOCK_BYTES // (dims * itemsize))


_NPY_DTYPES = ["<f8", ">f8", "<f4", "<i2", "|b1"]


@st.composite
def npy_files(draw):
    """(.npy bytes, labels) sized around ``read_feature_rows``' chunk (1
    pixel, one chunk less or more one pixel row, whole chunks, anything up
    to three chunks), in any of ``_NPY_DTYPES`` and either order, with
    non-finite values placed in chosen chunks, then maybe a body cut inside
    a chunk or at a chunk boundary, or trailing bytes."""
    dtype = np.dtype(draw(st.sampled_from(_NPY_DTYPES)))
    dims = draw(st.sampled_from([1, 3, 19]))
    step = _row_chunk(dims, dtype.itemsize)
    pixels = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step, 3 * step - 1])
                  .filter(lambda n: n >= 1) | st.integers(1, 3 * step))
    width = draw(st.sampled_from([d for d in (1, 2, 3, 5, 7) if pixels % d == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "f":
        v = (rng.normal(size=(pixels, dims)) * 1e3).astype(dtype)
        for _ in range(draw(st.integers(0, 2))):
            chunk = draw(st.integers(0, (pixels - 1) // step))
            i = draw(st.integers(chunk * step, min(pixels, (chunk + 1) * step) - 1))
            v[i, draw(st.integers(0, dims - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    elif dtype.kind == "i":
        v = rng.integers(-2**15, 2**15, size=(pixels, dims)).astype(dtype)
    else:
        v = rng.random((pixels, dims)) < 0.5
    v = v.reshape(pixels // width, width, dims)
    data = npy_bytes(np.asfortranarray(v) if draw(st.booleans()) else v)
    header = len(npy_bytes(v[:0]))  # the header does not depend on the shape's size here
    cut = draw(st.sampled_from(["none", "inside", "boundary", "trailing"]))
    if cut == "inside":
        data = data[: draw(st.integers(header, len(data) - 1))]
    elif cut == "boundary":
        data = data[: header + draw(st.integers(0, (pixels - 1) // step))
                    * step * dims * dtype.itemsize]
    elif cut == "trailing":
        data += bytes(draw(st.sampled_from([1, dims * dtype.itemsize, 4097])))
    labels = random_labelmap(rng, pixels // width, width, 3,
                             draw(st.sampled_from([0.0, 0.2, 1.0])))
    return data, labels


def read_rows(source, labels):
    """``fileio.read_feature_rows`` into a training builder of its own:
    (the builder's training blocks, the unlabeled rows' pieces)."""
    x = _TrainingBlocks([labels])
    pieces = fileio.read_feature_rows(source, labels, x)
    return x.done().blocks, pieces


def joined(pieces, dims):
    """The unlabeled rows' class-major pieces as one rows x ``dims`` array."""
    return np.concatenate(pieces, axis=1).T if pieces else np.empty((0, dims))


def assert_training_blocks(blocks, rows):
    """``blocks`` are the class-major training blocks of ``rows``: float64
    (d+1) x rows arrays cut by ``_row_blocks``, a row of ones last, whose
    concatenation is ``rows`` transposed."""
    cuts = _row_blocks(len(rows))
    assert [b.shape for b in blocks] == [(rows.shape[1] + 1, c.stop - c.start) for c in cuts]
    assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
    if blocks:
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1),
                                      np.vstack([rows.T, np.ones(len(rows))]))


#: The grid and feature dim of ``rows_peak_case``.
ROWS_PEAK_GRID = (160, 256, 19)


def rows_peak_case(dtype):
    """(the .npy bytes, the labels) of a ``ROWS_PEAK_GRID`` feature map of
    ``dtype``, about 80 % of its pixels labeled."""
    h, w, dims = ROWS_PEAK_GRID
    v = np.random.default_rng(0).normal(size=(h, w, dims)).astype(dtype)
    return npy_bytes(v), random_labelmap(np.random.default_rng(1), h, w, 3)


def rows_peak(dtype):
    """(the tracemalloc peak of ``read_rows`` of ``rows_peak_case(dtype)``,
    its training blocks, its unlabeled pieces)."""
    data, labels = rows_peak_case(dtype)
    tracemalloc.start()
    try:
        x, pieces = read_rows(data, labels)
        return tracemalloc.get_traced_memory()[1], x, pieces
    finally:
        tracemalloc.stop()


class TestReadFeatureRows:
    """read_feature_rows over chunks gives the rows or the exact error of
    the decode of the whole buffer (today's ``FeatureMap`` of the .npy),
    however the body is cut into chunks and however short the stream's
    reads are."""

    @staticmethod
    def assert_same_as_whole(source, data, labels):
        try:
            want_x, want_u = feature_rows_whole(data, labels)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                read_rows(source, labels)
            assert str(err.value) == str(e)
        else:
            x, pieces = read_rows(source, labels)
            u = joined(pieces, want_u.shape[1])
            assert_training_blocks(x, want_x)
            assert u.dtype == np.float64 and u.shape == want_u.shape
            np.testing.assert_array_equal(u, want_u)

    @given(npy_files(), st.sampled_from([5, 1000, 65537]))
    @settings(max_examples=150, deadline=None)
    def test_same_rows_or_error_as_the_whole_decode(self, file, piece):
        data, labels = file
        self.assert_same_as_whole(data, data, labels)
        self.assert_same_as_whole(Trickle(data, max(piece, len(data) // 1000)), data, labels)

    @pytest.mark.parametrize("dtype", _NPY_DTYPES)
    @pytest.mark.parametrize("rows", [1, 0, -1], ids=["chunk+1row", "chunk", "chunk-1row"])
    def test_one_chunk_give_or_take_a_pixel_row(self, dtype, rows):
        # a pixel row is one pixel's d features; width 1 makes it one image row
        step = _row_chunk(19, np.dtype(dtype).itemsize)
        v = (np.random.default_rng(3).normal(size=(step + rows, 1, 19)) * 100).astype(dtype)
        labels = random_labelmap(np.random.default_rng(4), step + rows, 1, 3)
        data = npy_bytes(v)
        self.assert_same_as_whole(data, data, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cut", ["none", "short", "long"])
    def test_a_bad_value_in_a_later_chunk_loses_to_the_body_size(self, value, cut):
        step = _row_chunk(19, 8)
        v = np.random.default_rng(5).normal(size=(3 * step, 1, 19))
        v[2 * step + 1, 0, 7] = value
        data = npy_bytes(v)
        data = {"none": data, "short": data[:-8], "long": data + b"\0"}[cut]
        labels = random_labelmap(np.random.default_rng(6), 3 * step, 1, 3)
        message = ("^feature map contains non-finite values$" if cut == "none"
                   else "^bad .npy file: body is ")
        for source in (data, Trickle(data, 1000)):
            with pytest.raises(ValueError, match=message):
                read_rows(source, labels)
        self.assert_same_as_whole(data, data, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_any_non_finite_value_is_found(self, value, where):
        v = np.random.default_rng(7).normal(size=(40, 50, 19))
        flat = v.reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = value
        labels = random_labelmap(np.random.default_rng(8), 40, 50, 3)
        with pytest.raises(ValueError, match="^feature map contains non-finite values$"):
            read_rows(npy_bytes(v), labels)

    def test_the_grid_must_be_the_labels_grid(self):
        data = npy_bytes(np.zeros((8, 12, 4)))
        for h, w in [(12, 8), (8, 11), (9, 12)]:
            labels = random_labelmap(np.random.default_rng(0), h, w, 3)
            with pytest.raises(ValueError, match="^feature and label dimensions differ$"):
                read_rows(data, labels)
        # the body size is decided first, non-finite values after the grid
        with pytest.raises(ValueError, match="^bad .npy file: body is "):
            read_rows(data[:-1], labels)
        with pytest.raises(ValueError, match="^feature and label dimensions differ$"):
            read_rows(npy_bytes(np.full((8, 12, 4), np.nan)), labels)

    @pytest.mark.parametrize("values, message", [
        (np.zeros((8, 12, 4), np.complex128),
         "feature map must hold real numbers, got dtype complex128"),
        (np.zeros((8, 12)), r"feature map must be H x W x d, got shape \(8, 12\)"),
        (np.zeros((8, 12, 0)), r"bad feature map shape \(8, 12, 0\)"),
    ], ids=["complex", "2-d", "empty"])
    def test_a_bad_layout_is_decided_after_the_body_size(self, values, message):
        labels = random_labelmap(np.random.default_rng(0), 8, 12, 3)
        data = npy_bytes(values)
        for body, want in [(data, f"^{message}$"),
                           (data + b"\0", "^bad .npy file: body is ")]:
            with pytest.raises(ValueError, match=want):
                read_rows(body, labels)
            self.assert_same_as_whole(body, body, labels)

    def test_unlabeled_rows_are_one_exact_copy_per_chunk_that_has_any(self):
        # one buffer that grew by doubling held its slack at the peak
        step = _row_chunk(19, 8)
        v = np.random.default_rng(9).normal(size=(3 * step, 1, 19))
        ids = np.zeros(3 * step, np.uint16)
        ids[step - 5 : step + 7] = UNLABELED_ID  # across the first chunk boundary only
        _, pieces = read_rows(npy_bytes(v), LabelMap(ids.reshape(-1, 1), 2))
        assert [p.shape for p in pieces] == [(19, 5), (19, 7)]
        assert all(p.base.flags.owndata and p.base.nbytes == p.nbytes for p in pieces)
        np.testing.assert_array_equal(joined(pieces, 19), v.reshape(-1, 19)[ids == UNLABELED_ID])

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    def test_peak_is_the_rows_one_block_and_one_chunk(self, dtype):
        # 40,960 pixels, about 32,800 of them labeled: 4 training blocks
        # and a remainder; the peak is read in a fresh interpreter, since
        # the <f8 case's margin is under 1 % of its bound
        h, w, dims = ROWS_PEAK_GRID
        data, labels = rows_peak_case(dtype)
        n_x = int(np.count_nonzero(labels.values != UNLABELED_ID))
        peak, x, pieces = in_fresh_interpreter(rows_peak, dtype)
        u = joined(pieces, dims)
        want_x, want_u = feature_rows_whole(data, labels)
        assert_training_blocks(x, want_x)
        assert np.array_equal(u, want_u)
        assert len(x) == 5
        rows = (n_x * (dims + 1) + (h * w - n_x) * dims) * 8
        block = max(c.stop - c.start for c in _row_blocks(n_x)) * dims * 8
        # the chunk read, and for float32 its float64 cast
        chunk = util._BLOCK_BYTES * (1 if dtype == "<f8" else 3)
        assert peak < rows + block + chunk + 128 * 1024

    @pytest.mark.parametrize("shape", [(1, 1, 2**27), (2**20, 2**20, 19)])
    def test_a_huge_header_sizes_no_array(self, shape):
        # 1 GiB for the one pixel the labels have, or a grid no labels match
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": shape})
        data = header.getvalue() + bytes(64)
        grid = shape[:2] if shape[0] == 1 else (8, 8)
        labels = LabelMap(np.zeros(grid, np.uint16), 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^bad .npy file: body is 64 bytes"):
                read_rows(data, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_huge_header_length_reads_no_further_than_the_file(self):
        # a version 2 header may claim 4 GiB of header text
        data = b"\x93NUMPY\x02\x00" + struct.pack("<I", 2**32 - 1) + b"{'descr'"
        labels = random_labelmap(np.random.default_rng(0), 2, 2, 3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^bad .npy file: EOF"):
                read_rows(data, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ValueError) as err:
            feature_rows_whole(data, labels)
        assert "EOF" in str(err.value)


class TestOneBuilderOverFiles:
    """The training rows of several .npy files are one builder's: one
    ``_row_blocks`` cut over all their labeled pixels."""

    def test_two_files_train_as_train_student(self, tmp_path):
        bench = make_benchmark(BenchmarkConfig(), 0)
        rng = np.random.default_rng(0)
        feats, labels = bench.feats[:2], []
        for i, (f, l) in enumerate(zip(feats, bench.teacher_labels[0])):
            ids = l.values.copy()
            ids[rng.random(ids.shape) < 0.15] = UNLABELED_ID
            labels.append(LabelMap(ids, l.num_classes))
            np.save(tmp_path / f"f{i}.npy", f.values)
        x = _TrainingBlocks(labels)
        for i, (f, l) in enumerate(zip(feats, labels)):
            with open(tmp_path / f"f{i}.npy", "rb") as fh:
                u = joined(fileio.read_feature_rows(fh, l, x), f.dims)
            mask = l.values.reshape(-1) == UNLABELED_ID
            assert mask.any() and np.array_equal(u, f.values.reshape(-1, f.dims)[mask])
        rows = x.done()
        # per-file blocks would be cut at the file boundary; these are not
        first = int(np.count_nonzero(labels[0].values != UNLABELED_ID))
        assert any(b.start < first < b.stop for b in _row_blocks(sum(map(len, rows.at))))
        config = TrainConfig(iterations=20, seed=3)
        got, want = train_rows(rows, config), train_student(feats, labels, config)
        assert np.array_equal(got.model.weights, want.model.weights)
        assert np.array_equal(got.model.bias, want.model.bias)
        assert np.array_equal(got.losses, want.losses)

    def test_files_of_two_feature_dims_are_refused(self):
        # numpy's take named neither the images nor their dims
        labels = [LabelMap(np.zeros((2, 3), np.uint16), 2)] * 2
        x = _TrainingBlocks(labels)
        fileio.read_feature_rows(npy_bytes(np.zeros((2, 3, 4))), labels[0], x)
        with pytest.raises(ValueError, match="^images disagree on feature dim or class count$"):
            fileio.read_feature_rows(npy_bytes(np.zeros((2, 3, 5))), labels[1], x)


def test_fileio_imports_nothing_from_distill():
    # the file layer is a codec: which pixels train, in which order and
    # cut, is the training builder's alone
    tree = ast.parse(open(fileio.__file__, encoding="utf-8").read())
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
    assert imported and not [m for m in imported if m.split(".")[-1] == "distill"]


def test_read_feature_rows_reads_only_the_grid_of_its_labels():
    # which pixels are labeled is the training builder's alone: the reader
    # also counted the unlabeled pixels from the label values
    tree = ast.parse(Path(fileio.__file__).read_text(encoding="utf-8"))
    [fn] = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "read_feature_rows"]
    parent = {id(child): node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
    uses = [parent[id(node)] for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "labels"]
    assert sorted({getattr(use, "attr", type(use).__name__) for use in uses}) == [
        "height", "width"]


def test_package_imports_only_the_standard_library_numpy_and_itself():
    # numpy is the one declared dependency; scipy being installed is no licence
    for path in sorted(Path(fileio.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and not node.level]
        imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for a in node.names]
        foreign = {m.split(".")[0] for m in imported} - {"numpy", "segfuse"}
        assert not foreign - sys.stdlib_module_names, path.name


def test_fileio_calls_no_argmax_and_no_numpy_isfinite():
    # a .pmap's labels come from unify's one argmax, and finiteness from
    # core's one test; math.isfinite of a decoded JSON number is no map's test
    tree = ast.parse(open(fileio.__file__, encoding="utf-8").read())
    called = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert called and not [f for f in called if f.split(".")[-1] == "argmax"
                           or f.split(".")[-1] == "isfinite" and f != "math.isfinite"]


class TestJsonCsv:
    def test_policy_roundtrip(self):
        p = FusionPolicy(np.array([0, 2, 1]), 3)
        q = fileio.policy_from_json(fileio.policy_to_json(p))
        assert np.array_equal(p.assignment, q.assignment)
        assert q.num_teachers == 3

    def test_policy_json_shape(self):
        import json

        obj = json.loads(fileio.policy_to_json(FusionPolicy(np.array([1, 0]), 2)))
        assert obj == {"classes": 2, "teachers": 2, "assignment": [1, 0]}

    def test_policy_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            fileio.policy_from_json('{"classes": 3, "teachers": 2, "assignment": [0]}')

    def test_report_roundtrip_with_undefined(self):
        r = IoUReport(np.array([0.5, np.nan, 1.0]))
        back = fileio.report_from_json(fileio.report_to_json(r))
        assert np.isnan(back.per_class[1])
        assert back.per_class[0] == 0.5

    @pytest.mark.parametrize("text", [
        '{"per_class": [0.5, 0.25]}',
        '{"per_class": [0.5, 0.25], "miou": 0.375}',
        '{"per_class": [0.5, null, 0.25], "miou": 0.3750000000001}',
        '{"per_class": [null, null], "miou": null}',
    ])
    def test_report_miou_may_be_absent_or_the_mean(self, text):
        assert fileio.report_from_json(text).num_classes in (2, 3)

    @pytest.mark.parametrize("miou", ['"abc"', "0.99", "0.376", "null", "true", "NaN"])
    def test_report_miou_must_be_the_mean(self, miou):
        with pytest.raises(ValueError, match="miou"):
            fileio.report_from_json('{"per_class": [0.5, 0.25], "miou": %s}' % miou)

    def test_report_rejects_nan_for_undefined(self):
        # null, not the non-standard NaN literal, marks an undefined class
        with pytest.raises(ValueError, match="finite"):
            fileio.report_from_json('{"per_class": [NaN, 0.5]}')

    def test_report_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            fileio.report_from_json('{"per_class": [0.5, 0.25], "mIoU": 0.99}')

    def test_report_miou_must_be_null_without_defined_classes(self):
        with pytest.raises(ValueError, match="miou"):
            fileio.report_from_json('{"per_class": [null, null], "miou": 0.0}')


class TestReadFile:
    def test_npy_body_is_decoded_in_place_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # height x 256 x 4 little-endian float64 is four whole chunks and a
        # part of one more; each is checked as an aligned float64 view of
        # one reused buffer, not a copy
        height = 4 * util._BLOCK_BYTES // (256 * 4 * 8) + 2
        values = np.random.default_rng(0).normal(size=(height, 256, 4))
        path = tmp_path / "f.npy"
        np.save(path, values)
        seen = []

        def recording(v, _check=fileio._all_finite):
            seen.append((v.ctypes.data, v.nbytes, v.flags.aligned, v.base is not None))
            return _check(v)

        monkeypatch.setattr(fileio, "_all_finite", recording)
        labels = random_labelmap(np.random.default_rng(1), height, 256, 3)
        with open(path, "rb") as fh:
            x, pieces = read_rows(fh, labels)
        u = joined(pieces, 4)
        assert len(seen) == 5 and len({start for start, *_ in seen}) == 1
        assert all(aligned and view and size <= util._BLOCK_BYTES
                   for _, size, aligned, view in seen)
        assert sum(size for _, size, *_ in seen) == values.nbytes
        rows, labeled = values.reshape(-1, 4), labels.values.reshape(-1) != UNLABELED_ID
        assert_training_blocks(x, rows[labeled])
        assert np.array_equal(u, rows[~labeled])


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.bin"
        fileio.write_bytes_atomic(str(path), b"one")
        fileio.write_bytes_atomic(str(path), b"two")
        assert path.read_bytes() == b"two"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".segfuse-")]
        assert leftovers == []

    def test_refuses_two_outputs_of_one_file_before_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.symlink(tmp_path / "a.bin", tmp_path / "link")
        made = []

        def chunks(name):
            made.append(name)
            yield b"x"

        for alias in ("./a.bin", "link", str(tmp_path / "sub" / ".." / "a.bin")):
            (tmp_path / "sub").mkdir(exist_ok=True)
            outputs = [(str(tmp_path / "a.bin"), chunks("a")), ("b.bin", chunks("b")),
                       (alias, chunks("alias"))]
            with pytest.raises(ValueError) as err:
                fileio.write_files_atomic(outputs)
            assert str(err.value) == f"{alias}: names the same file as another output"
            assert made == []
            assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.bin"
        old = os.umask(0o022)
        try:
            fileio.write_bytes_atomic(str(path), b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_an_output_that_fails_leaves_no_output(self, tmp_path):
        def chunks():
            yield b"part"
            raise ValueError("broken")

        outputs = [(str(tmp_path / "a.bin"), [b"a"]), (str(tmp_path / "b.bin"), chunks()),
                   (str(tmp_path / "c.bin"), [b"c"])]
        with pytest.raises(ValueError, match="^broken$"):
            fileio.write_files_atomic(outputs)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_error_names_the_output_path(self, tmp_path):
        path = str(tmp_path / "nope" / "out.bin")
        with pytest.raises(FileNotFoundError) as info:
            fileio.write_bytes_atomic(path, b"x")
        assert info.value.filename == path
        assert ".segfuse-" not in str(info.value)

"""Bit-exact codecs and serializers for the toolkit's file formats.

Binary layouts (all little-endian):

  .pmap   magic "PMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W*|C| float32, pixel-major with the class axis fastest.
  .lmap   magic "LMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W u16 class ids row-major; 65535 = unlabeled.

A member's labels are read by ``read_labels``, which tells a .lmap from a
.pmap by its magic: a .pmap is read for its labels alone, its float32 body
streaming through one reused buffer a cache-sized chunk at a time, each
chunk checked and argmaxed as it arrives, and no decoder builds a ProbMap.
Feature maps are NumPy .npy files, read as the student's training blocks
(``read_feature_rows``) in the same kind of chunks.  A .pmap is written
by one encoder, ``probmap_chunks``.  Policies and per-member score reports
(a teacher's per-class IoU, or its student's per-class certainty rho)
travel as UTF-8 JSON.  Codecs are pure functions; writes via
``write_files_atomic`` never leave partial files behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import tokenize
import uuid

import numpy as np

from .core import (_FEATURES_NOT_FINITE, UNLABELED_ID, FusionPolicy, IoUReport, LabelMap,
                   ProbabilityCheck, _all_finite, _check_feature_layout)
from .distill import _TrainingBlocks
from .util import json_number

_HEADER = struct.Struct("<4sIIIH")
_PMAP_MAGIC = b"PMAP"
_LMAP_MAGIC = b"LMAP"
_VERSION = 1

# Guard against absurd headers before reading a body: a header may describe
# at most this many bytes, counted as a float64 H x W x C ProbMap for a
# .pmap and as uint16 H x W labels for a .lmap.
_MAX_BYTES = 2**31

# .npy header readers by format version; 3.0 only adds UTF-8 field names.
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _parse_header(data: bytes, magic: bytes) -> tuple[int, int, int]:
    if len(data) < _HEADER.size:
        raise ValueError(f"truncated header: {len(data)} bytes")
    got_magic, version, height, width, classes = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise ValueError(f"bad magic {got_magic!r}, expected {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    if height < 1 or width < 1:
        raise ValueError(f"bad dimensions {height}x{width}")
    if classes < 2:
        raise ValueError(f"need at least 2 classes, header says {classes}")
    if height * width * (8 * classes if magic == _PMAP_MAGIC else 2) > _MAX_BYTES:
        raise ValueError(f"dimension overflow: {height}x{width}x{classes}")
    return height, width, classes


def _check_size(body: int, expected: int, prefix: str = "") -> None:
    """Refuse a body of ``body`` bytes where the header says ``expected``."""
    if body != expected:
        raise ValueError(f"{prefix}body is {body} bytes, header implies {expected}")


#: A .pmap body is read, checked and argmaxed, and a .npy body read into
#: training rows, in chunks of whole pixels of about this many bytes, each
#: still in L2 cache for its passes (for a .pmap, chunks of 128 to 512 KB
#: were about equally fast at 19 classes, 1 MB slower).
_CHUNK_BYTES = 1 << 18


def _read_into(fh, buf: memoryview) -> int:
    """Fill ``buf`` from the binary stream ``fh``, short only at end of
    file, whatever sizes its reads return; the count of bytes read."""
    got = 0
    while got < len(buf) and (n := fh.readinto(buf[got:])):
        got += n
    return got


def _fill(fh, buf: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Read up to ``size`` bytes of ``fh`` into the uint8 array ``buf``,
    short only at end of file: (the buffer, the count read).  A buffer
    shorter than ``size`` doubles, up to ``size``, only once the bytes read
    have filled it, so memory follows the bytes that arrive."""
    got = _read_into(fh, memoryview(buf)[:size])
    while got == len(buf) < size:
        grown = np.empty(min(2 * len(buf), size), np.uint8)
        grown[:got] = buf[:got]
        buf = grown
        got += _read_into(fh, memoryview(buf)[got:size])
    return buf, got


def _take(fh, size: int) -> bytes:
    """Up to ``size`` bytes of ``fh``, short only at end of file."""
    buf, got = _fill(fh, np.empty(min(size, _CHUNK_BYTES), np.uint8), size)
    return buf[:got].tobytes()


def _chunks(fh, expected: int, step: int, unit: int, prefix: str = ""):
    """The rest of ``fh``, a body the header says is ``expected`` bytes of
    whole ``unit``s, read in chunks of ``step`` bytes (whole units) into
    one reused uint8 buffer: yields (offset, chunk) for each chunk that
    can be part of that body, and skips the rest, which only count.  At
    end of file it raises the size error, ``prefix`` in front."""
    buf, body = np.empty(min(step, _CHUNK_BYTES), np.uint8), 0
    while True:
        buf, got = _fill(fh, buf, step)
        if not got:
            break
        body += got
        if body <= expected and not got % unit:
            yield body - got, buf[:got]
    _check_size(body, expected, prefix)


def read_labels(source, logits: bool = False) -> LabelMap:
    """The labels of a .lmap (``read_labelmap``) or of a .pmap, told apart
    by the magic.  A .pmap's labels are the per-pixel argmax of its
    float32 body, with ties to the smallest class id.  The body must pass
    ``check_probabilities``, or with ``logits`` be finite raw scores; a
    softmax is monotone, so their argmax is that of their softmax except
    where ``exp`` rounding would tie two of them.

    ``source`` is a binary file at its start (a file, a FIFO), or the
    file's bytes.  A .pmap body is read in chunks of whole pixels into one
    reused buffer, and each chunk is checked and argmaxed while it is in
    cache; the labels grow only as their pixels arrive.  The peak is one
    chunk plus the labels, and no array is sized from the header before
    its bytes arrive.  Errors are decided at end of file, in the order of
    a check of the whole body: its size, then its values, by one
    ``ProbabilityCheck``.
    """
    fh = source if hasattr(source, "readinto") else io.BytesIO(source)
    head = _take(fh, _HEADER.size)
    if head[:4] == _LMAP_MAGIC:
        return read_labelmap(head + fh.read())
    h, w, c = _parse_header(head, _PMAP_MAGIC)
    pixel = 4 * c
    step = pixel * min(h * w, max(1, _CHUNK_BYTES // pixel))
    ids = np.empty(step // pixel, np.intp)
    labels = np.empty(0, np.uint16)
    check, finite = ProbabilityCheck(), True
    for offset, chunk in _chunks(fh, h * w * pixel, step, pixel):
        v = chunk.view("<f4").reshape(-1, c)
        if not logits:
            check.add(v)
        elif finite:
            finite = bool(np.isfinite(v).all())
        if finite and not check.failed:
            start = offset // pixel
            np.argmax(v, axis=1, out=ids[: len(v)])
            labels.resize(start + len(v), refcheck=False)
            labels[start:] = ids[: len(v)]
    if not finite:
        raise ValueError("logit body contains non-finite values")
    check.verdict()
    labels.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(labels.reshape(h, w), c)


def probmap_chunks(height: int, width: int, classes: int, blocks):
    """A .pmap's bytes as chunks to write: the header, then each of
    ``blocks`` (rows x classes probabilities, together the H x W pixels in
    pixel order) cast to float32 as it comes.  It checks no probability."""
    if classes > 65535:
        raise ValueError(f"class count {classes} does not fit the u16 header field")
    yield _HEADER.pack(_PMAP_MAGIC, _VERSION, height, width, classes)
    for blk in blocks:
        yield blk.astype("<f4", order="C")


def read_labelmap(data: bytes) -> LabelMap:
    h, w, c = _parse_header(data, _LMAP_MAGIC)
    _check_size(len(data) - _HEADER.size, h * w * 2)
    ids = np.frombuffer(data, "<u2", offset=_HEADER.size).reshape(h, w)
    return LabelMap(ids, c)


def write_labelmap(lm: LabelMap) -> bytes:
    header = _HEADER.pack(_LMAP_MAGIC, _VERSION, lm.height, lm.width, lm.num_classes)
    return header + lm.values.astype("<u2").tobytes()


def policy_to_json(policy: FusionPolicy) -> str:
    return json.dumps(
        {
            "classes": policy.num_classes,
            "teachers": policy.num_teachers,
            "assignment": [int(t) for t in policy.assignment],
        }
    )


def policy_from_json(text: str) -> FusionPolicy:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"policy JSON is malformed: {e}")
    try:
        assignment, teachers, classes = obj["assignment"], obj["teachers"], obj["classes"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"policy JSON is missing fields: {e}")
    if not isinstance(assignment, list) or not all(
        json_number(v, integral=True) for v in [teachers, classes, *assignment]
    ):
        raise ValueError("policy JSON needs integer classes, teachers and assignment")
    if len(assignment) != classes:
        raise ValueError(
            f"policy JSON says {classes} classes but lists {len(assignment)} entries"
        )
    return FusionPolicy(np.array(assignment, dtype=np.int64), teachers)


def report_to_json(report: IoUReport) -> str:
    per_class = [None if np.isnan(v) else float(v) for v in report.per_class]
    miou = report.miou
    return json.dumps(
        {"per_class": per_class, "miou": None if np.isnan(miou) else miou}
    )


def report_from_json(text: str) -> IoUReport:
    try:
        obj = json.loads(text)
        per_class = obj["per_class"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as e:
        raise ValueError(f"report JSON is malformed: {e}")
    # A misspelt miou must not pass as an absent one.
    extra = set(obj) - {"per_class", "miou"}
    if extra:
        raise ValueError(f"unknown report JSON fields: {sorted(extra)}")
    if not isinstance(per_class, list) or not all(
        v is None or (json_number(v) and math.isfinite(v)) for v in per_class
    ):
        raise ValueError("report JSON per_class must be a list of finite numbers or nulls")
    report = IoUReport(np.array([np.nan if v is None else float(v) for v in per_class]))
    # miou may be absent; if given it must be the mean of the defined
    # per_class values (within 1e-9), or null when none is defined.
    if "miou" in obj:
        miou, mean = obj["miou"], report.miou
        if np.isnan(mean):
            ok = miou is None
        else:
            ok = json_number(miou) and abs(miou - mean) <= 1e-9
        if not ok:
            raise ValueError(
                f"report JSON miou {miou!r} is not the mean of per_class ({mean!r})"
            )
    return report


def _npy_header(fh) -> tuple[tuple, bool, np.dtype]:
    """(shape, fortran_order, dtype) of the .npy header at the start of the
    binary stream ``fh``, which is read up to the header's end and no further."""
    head = _take(fh, 10)
    size = 2 if head[6:7] == b"\x01" else 4
    head += _take(fh, size - 2)
    head += _take(fh, int.from_bytes(head[8 : 8 + size], "little"))
    stream = io.BytesIO(head)
    try:
        version = np.lib.format.read_magic(stream)
        read_header = _NPY_HEADERS.get(version)
        if read_header is None:
            raise ValueError(f"unsupported version {version}")
        shape, fortran_order, dtype = read_header(stream)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as e:
        raise ValueError(f"bad .npy file: {e}") from e
    if dtype.hasobject:
        raise ValueError("bad .npy file: object arrays are not accepted")
    return shape, fortran_order, dtype


def _append_rows(rows: np.ndarray, end: int, v: np.ndarray, take: np.ndarray,
                 limit: int) -> int:
    """Copy the rows of ``v`` where ``take`` is set into ``rows`` from row
    ``end`` on, and return the new end.  ``rows`` grows in place when they
    do not fit: to twice its rows, at most ``limit``, so a few reallocations
    copy it, not one per chunk."""
    new_end = end + int(np.count_nonzero(take))
    if new_end > len(rows):
        rows.resize((min(max(new_end, 2 * len(rows)), limit), rows.shape[1]), refcheck=False)
    np.compress(take, v, axis=0, out=rows[end:new_end])
    return new_end


def read_feature_rows(source, labels: LabelMap) -> tuple[list, np.ndarray]:
    """The float64 rows of a .npy H x W x d feature map on the grid of
    ``labels``: (x, u), the class-major training blocks of its labeled
    pixels (``distill._TrainingBlocks``: (d+1) x rows arrays, a row of
    ones last) and the rows of its unlabeled ones, each in pixel order.

    ``source`` is a binary stream at the start of the file, or its bytes,
    as for ``read_labels``.  The body is read in chunks of whole pixels of
    about ``_CHUNK_BYTES`` into one reused buffer; each chunk is cast to
    float64, checked, and its labeled rows staged for their training block
    and its unlabeled rows copied onto the end of ``u``.  The staged rows
    (at most one block) and ``u`` (at most doubling) grow only as their
    pixels arrive, and each finished block is transposed into an
    exact-size array.  The peak is the rows, (d+1)/d times over for the
    labeled ones, plus one block and one chunk, and no array is sized from
    the header before its bytes arrive.
    A Fortran-order body has no pixel rows to stream, so it is read whole,
    as one chunk.  Header errors and object arrays are raised at once;
    then, at end of file, the body size, a layout no FeatureMap takes, a
    grid other than ``labels``', and non-finite values, in that order.
    """
    fh = source if hasattr(source, "readinto") else io.BytesIO(source)
    shape, fortran, dtype = _npy_header(fh)
    expected = math.prod(shape) * dtype.itemsize
    try:
        _check_feature_layout(dtype, shape)
        if shape[:2] != (labels.height, labels.width):
            raise ValueError("feature and label dimensions differ")
        error, dims = None, shape[2]
    except ValueError as e:
        error, dims = e, 1  # raised once the body is counted
    pixel = dims * dtype.itemsize
    # A chunk is whole pixel rows, or a Fortran-order body whole.
    unit = expected if fortran else pixel
    step = _CHUNK_BYTES if error is not None else unit * max(1, _CHUNK_BYTES // unit)
    labeled = labels.values.reshape(-1) != UNLABELED_ID
    n_x = int(np.count_nonzero(labeled))
    x, u, u_end = _TrainingBlocks(n_x, dims), np.empty((0, dims)), 0
    finite = True
    for offset, chunk in _chunks(fh, expected, step, unit, "bad .npy file: "):
        if error is not None or not finite:
            continue  # a verdict is decided; read on to count the body
        v = chunk.view(dtype)
        if fortran:
            v = v.reshape(shape, order="F")
        v = v.reshape(-1, dims).astype(np.float64, copy=False)
        finite = _all_finite(v)
        if finite:
            take = labeled[offset // pixel :][: len(v)]
            x.add(v, np.flatnonzero(take))
            u_end = _append_rows(u, u_end, v, ~take, len(labeled) - n_x)
    if error is not None:
        raise error
    if not finite:
        raise ValueError(_FEATURES_NOT_FINITE)
    return x.blocks, u


def write_files_atomic(outputs) -> None:
    """Write each ``(path, chunks)`` of the list ``outputs``, ``chunks`` an
    iterable of bytes-like objects, to a temp file beside ``path``, and
    rename the temp files to their paths only once all are written: a
    failed write, or an error raised while the chunks are made, leaves no
    output and no temp file, and readers never see a partial file.

    The files get mode 0666 less the umask, as ``open`` would give them,
    and an ``OSError`` names the output's path, not its temp file.
    """
    written, path = [], None
    try:
        for path, chunks in outputs:
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               f".segfuse-{uuid.uuid4().hex}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            written.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException as e:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, path) from e
        raise


def write_bytes_atomic(path: str, data: bytes) -> None:
    """``write_files_atomic`` of the one output ``data`` at ``path``."""
    write_files_atomic([(path, [data])])

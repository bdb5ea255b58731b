"""Bit-exact codecs and serializers for the toolkit's file formats.

Binary layouts (all little-endian):

  .pmap   magic "PMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W*|C| float32, pixel-major with the class axis fastest.
  .lmap   magic "LMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W u16 class ids row-major; 65535 = unlabeled.

Policies and per-member score reports (a teacher's per-class IoU, or its
student's per-class certainty rho) travel as UTF-8 JSON, and feature maps
as NumPy .npy files.  Codecs are pure functions; writes via
``write_bytes_atomic`` never leave partial files behind.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import tokenize
import uuid

import numpy as np

from .core import FusionPolicy, IoUReport, LabelMap, ProbMap
from .util import json_number, softmax_inplace

_HEADER = struct.Struct("<4sIIIH")
_PMAP_MAGIC = b"PMAP"
_LMAP_MAGIC = b"LMAP"
_VERSION = 1

# Guard against absurd headers before allocating anything.
_MAX_ELEMENTS = 2**31

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
    if height * width * classes > _MAX_ELEMENTS:
        raise ValueError(f"dimension overflow: {height}x{width}x{classes}")
    return height, width, classes


def _check_body(data: bytes, expected: int) -> None:
    body = len(data) - _HEADER.size
    if body != expected:
        raise ValueError(f"body is {body} bytes, header implies {expected}")


def read_probmap(data: bytes, renormalize: bool = False) -> ProbMap:
    """Decode a .pmap byte string.

    With ``renormalize`` the body is treated as raw logits and passed
    through a per-pixel softmax instead of being validated as-is.
    """
    h, w, c = _parse_header(data, _PMAP_MAGIC)
    _check_body(data, h * w * c * 4)
    raw = np.frombuffer(data, "<f4", offset=_HEADER.size).reshape(h, w, c)
    raw = raw.astype(np.float64)
    if renormalize:
        if not np.isfinite(raw).all():
            raise ValueError("logit body contains non-finite values")
        softmax_inplace(raw, axis=2)
    return ProbMap(raw)


def write_probmap(pm: ProbMap) -> bytearray:
    """Encode a .pmap: one output buffer, the values cast straight into it."""
    h, w, c = pm.values.shape
    if c > 65535:
        raise ValueError(f"class count {c} does not fit the u16 header field")
    out = bytearray(_HEADER.size + pm.values.size * 4)
    _HEADER.pack_into(out, 0, _PMAP_MAGIC, _VERSION, h, w, c)
    np.frombuffer(out, "<f4", offset=_HEADER.size).reshape(h, w, c)[...] = pm.values
    return out


def read_labelmap(data: bytes) -> LabelMap:
    h, w, c = _parse_header(data, _LMAP_MAGIC)
    _check_body(data, h * w * 2)
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
    except json.JSONDecodeError as e:
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
    except (json.JSONDecodeError, KeyError, TypeError) as e:
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


def read_npy(data: bytes) -> np.ndarray:
    """Decode a .npy byte string without copying its body; no objects or trailing bytes."""
    stream = io.BytesIO(data)
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
    count = math.prod(shape)
    body, expected = len(data) - stream.tell(), count * dtype.itemsize
    if body != expected:
        raise ValueError(f"bad .npy file: body is {body} bytes, header implies {expected}")
    values = np.frombuffer(data, dtype, count=count, offset=stream.tell())
    return values.reshape(shape, order="F" if fortran_order else "C")


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write via a temp file + rename so readers never see partial output.

    The file gets mode 0666 less the umask, as ``open`` would give it, and
    an ``OSError`` names ``path``, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".segfuse-{uuid.uuid4().hex}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e


def write_text_atomic(path: str, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))

"""Bit-exact codecs and serializers for the toolkit's file formats.

Binary layouts (all little-endian):

  .pmap   magic "PMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W*|C| float32, pixel-major with the class axis fastest.
  .lmap   magic "LMAP", u32 version=1, u32 H, u32 W, u16 |C|,
          then H*W u16 class ids row-major; 65535 = unlabeled.

Policies and IoU reports travel as UTF-8 JSON, certainty tables as CSV
with header "class,teacher,rho".  Codecs are pure functions; writes via
``write_bytes_atomic`` never leave partial files behind.
"""

from __future__ import annotations

import json
import os
import struct
import uuid

import numpy as np

from .core import (
    CertaintyTable,
    FusionPolicy,
    IoUReport,
    LabelMap,
    ProbMap,
)
from .util import format_cell, softmax_inplace

_HEADER = struct.Struct("<4sIIIH")
_PMAP_MAGIC = b"PMAP"
_LMAP_MAGIC = b"LMAP"
_VERSION = 1

# Guard against absurd headers before allocating anything.
_MAX_ELEMENTS = 2**31


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
        assignment = np.asarray(obj["assignment"], dtype=np.int64)
        teachers = int(obj["teachers"])
        classes = int(obj["classes"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"policy JSON is missing fields: {e}")
    if assignment.size != classes:
        raise ValueError(
            f"policy JSON says {classes} classes but lists {assignment.size} entries"
        )
    return FusionPolicy(assignment, teachers)


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
        raise ValueError(f"IoU report JSON is malformed: {e}")
    arr = np.array(
        [np.nan if v is None else float(v) for v in per_class], dtype=np.float64
    )
    return IoUReport(arr)


def table_to_csv(table: CertaintyTable) -> str:
    lines = ["class,teacher,rho"]
    for c in range(table.num_classes):
        for t in range(table.num_teachers):
            lines.append(f"{c},{t},{format_cell(table.rho[c, t])}")
    return "\n".join(lines) + "\n"


def table_from_csv(text: str) -> CertaintyTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "class,teacher,rho":
        raise ValueError('certainty CSV must start with header "class,teacher,rho"')
    cells = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad certainty CSV row: {ln!r}")
        cells.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not cells:
        raise ValueError("certainty CSV has no data rows")
    classes = max(c for c, _, _ in cells) + 1
    teachers = max(t for _, t, _ in cells) + 1
    rho = np.full((classes, teachers), np.nan)
    for c, t, v in cells:
        rho[c, t] = v
    return CertaintyTable(rho)


def histogram_to_csv(counts: np.ndarray, edges: np.ndarray) -> str:
    lines = ["bin_low,bin_high,count"]
    for i, n in enumerate(counts):
        lines.append(f"{format_cell(edges[i])},{format_cell(edges[i + 1])},{int(n)}")
    return "\n".join(lines) + "\n"


def trace_to_csv(losses) -> str:
    lines = ["iter,loss"]
    for i, loss in enumerate(losses):
        lines.append(f"{i},{format_cell(loss)}")
    return "\n".join(lines) + "\n"


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

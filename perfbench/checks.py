"""Output checks that do not trust the program under test.

The file formats are decoded here with plain numpy, and the fusion rules
and IoU are re-derived from their definitions, so a defect in the
program's own codecs or kernels cannot hide itself from the checks.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

UNLABELED = 65535
_HEADER = struct.Struct("<4sIIIH")


def _decode(data: bytes, magic: bytes, itemsize: int):
    if len(data) < _HEADER.size:
        raise ValueError(f"{magic.decode()} file is {len(data)} bytes, shorter than its header")
    got, version, h, w, c = _HEADER.unpack_from(data)
    if got != magic or version != 1:
        raise ValueError(f"bad {magic.decode()} header: magic {got!r}, version {version}")
    body = memoryview(data)[_HEADER.size:]
    per_pixel = c if magic == b"PMAP" else 1
    if len(body) != h * w * per_pixel * itemsize:
        raise ValueError(f"{magic.decode()} body is {len(body)} bytes, header says {h}x{w}x{c}")
    return body, h, w, c


def decode_lmap(data: bytes) -> tuple[np.ndarray, int]:
    """(H x W uint16 ids, class count) of a .lmap byte string."""
    body, h, w, c = _decode(data, b"LMAP", 2)
    return np.frombuffer(body, dtype="<u2").reshape(h, w), c


def decode_pmap(data: bytes) -> np.ndarray:
    """H x W x C float32 probabilities of a .pmap byte string, validated."""
    body, h, w, c = _decode(data, b"PMAP", 4)
    probs = np.frombuffer(body, dtype="<f4").reshape(h, w, c)
    if not np.isfinite(probs).all():
        raise ValueError("probability map holds non-finite values")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ValueError("probability map holds values outside [0, 1]")
    # float32 storage of probabilities that summed to 1 in float64.
    if np.abs(probs.sum(axis=2, dtype=np.float64) - 1.0).max() > 1e-3:
        raise ValueError("probability map rows do not sum to 1")
    return probs


def unified_labels(pmap_bytes: bytes) -> np.ndarray:
    """Per-pixel argmax (ties to the lowest class) of a .pmap byte string."""
    return decode_pmap(pmap_bytes).argmax(axis=2)


def miou(pred: np.ndarray, gt: np.ndarray, classes: int) -> float:
    """Mean IoU over the classes present in either map; unlabeled predicts nothing."""
    ious = []
    for c in range(classes):
        p = pred == c
        g = gt == c
        union = np.count_nonzero(p | g)
        if union:
            ious.append(np.count_nonzero(p & g) / union)
    return float(np.mean(ious))


def check_channel_fusion(fused: np.ndarray, unified: list, assignment: list) -> list[str]:
    """Failures of a channel-fused map against the rule that defines it.

    A pixel claimed by exactly one selected channel keeps that class, an
    unclaimed pixel stays unlabeled and a contested pixel gets one of its
    claimants.
    """
    claims = np.stack([unified[t] == c for c, t in enumerate(assignment)])
    count = claims.sum(axis=0)
    failures = []
    single = count == 1
    if not (fused[single] == claims.argmax(axis=0)[single]).all():
        failures.append("a pixel claimed by one channel lost its class")
    if not (fused[count == 0] == UNLABELED).all():
        failures.append("an unclaimed pixel was labeled")
    contested = count >= 2
    ids = fused[contested].astype(np.intp)
    if (ids >= len(assignment)).any() or not claims[:, contested][ids, np.arange(ids.size)].all():
        failures.append("a contested pixel got a class that does not claim it")
    return failures


def pixel_vote(unified: list, classes: int) -> np.ndarray:
    """Majority vote per pixel by counting each class; ties to the lowest class."""
    votes = np.stack([sum((u == c).astype(np.int32) for u in unified) for c in range(classes)])
    return votes.argmax(axis=0)


def parse_robustness_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row["bad_count"] = int(row["bad_count"])
        row["miou"] = float(row["miou"])
    return rows


def check_robustness(rows: list[dict], seed: int, bad_counts: list[int]) -> list[str]:
    """Every (k, method) row present and finite; channel fusion holds up against k.

    The certainty-aware channel route should barely move as the bad member
    is re-added (drift at most 0.015) and should beat the pixel vote at the
    largest k.
    """
    methods = ("pixel", "channel_certainty", "average")
    by_key = {(r["bad_count"], r["method"]): r["miou"] for r in rows if int(r["seed"]) == seed}
    failures = []
    if len(rows) != len(bad_counts) * len(methods) or len(by_key) != len(rows):
        failures.append(f"expected {len(bad_counts) * len(methods)} rows for seed {seed}, got {len(rows)}")
        return failures
    if not all(math.isfinite(v) for v in by_key.values()):
        failures.append("a robustness mIoU is not finite")
        return failures
    channel = [by_key[(k, "channel_certainty")] for k in bad_counts]
    if max(channel) - min(channel) > 0.015:
        failures.append(f"channel_certainty mIoU drifts by {max(channel) - min(channel):.4f} across k")
    k = max(bad_counts)
    if not by_key[(k, "channel_certainty")] > by_key[(k, "pixel")]:
        failures.append(f"channel_certainty does not beat pixel at k={k}")
    return failures

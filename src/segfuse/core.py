"""Core domain types for ensemble pseudo-label fusion.

Label maps, probability maps, fusion policies and per-member score
reports are frozen dataclasses over numpy arrays.  Every array is
validated and marked read-only at construction time, so instances are
immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Canonical id of the "unlabeled" symbol (also its serialized u16 value).
UNLABELED_ID = 65535

#: Per-pixel probability vectors may deviate from sum 1 by this much
#: (float32 accumulation error over up to 256 classes).
PROB_SUM_TOL = 1e-4


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProbMap:
    """H x W x C map of per-pixel class probabilities.

    Values are kept as float64 in memory (training and loss code needs
    64-bit accumulation); the on-disk format is float32.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"probability map must be H x W x C, got shape {v.shape}")
        h, w, c = v.shape
        if h < 1 or w < 1 or c < 2:
            raise ValueError(f"bad probability map shape {v.shape}")
        # One range test; NaN and +-inf fail it too, and only then is the
        # map scanned again to tell the two errors apart.
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            if not np.isfinite(v).all():
                raise ValueError("probability map contains non-finite values")
            raise ValueError("probabilities must lie in [0, 1]")
        dev = np.abs(v.sum(axis=2) - 1.0).max()
        if dev > PROB_SUM_TOL:
            raise ValueError(
                f"per-pixel probabilities must sum to 1 (worst deviation {dev:.3e})"
            )
        object.__setattr__(self, "values", _frozen(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def num_classes(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class LabelMap:
    """H x W map of class ids; UNLABELED_ID marks pixels with no class."""

    values: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"class count must be >= 2, got {self.num_classes}")
        if self.num_classes > UNLABELED_ID:
            raise ValueError(
                f"class count must fit 16-bit storage, got {self.num_classes}"
            )
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError(f"label map must be H x W, got shape {v.shape}")
        if not np.issubdtype(v.dtype, np.integer):
            raise ValueError(f"label map requires integer values, got {v.dtype}")
        bad = (v < 0) | ((v >= self.num_classes) & (v != UNLABELED_ID))
        if bad.any():
            raise ValueError(
                f"label map contains ids outside [0, {self.num_classes}) "
                f"that are not the unlabeled sentinel"
            )
        object.__setattr__(self, "values", _frozen(v.astype(np.uint16)))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def unlabeled_mask(self) -> np.ndarray:
        return self.values == UNLABELED_ID


@dataclass(frozen=True, eq=False)
class FusionPolicy:
    """Total mapping class id -> teacher index used by channel-wise fusion."""

    assignment: np.ndarray
    num_teachers: int

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("policy assignment must be a non-empty 1-d array")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("policy assignment must hold integer teacher indices")
        if self.num_teachers < 1:
            raise ValueError("policy needs at least one teacher")
        if (a < 0).any() or (a >= self.num_teachers).any():
            raise ValueError(
                f"policy references teachers outside [0, {self.num_teachers})"
            )
        object.__setattr__(self, "assignment", _frozen(a.astype(np.int64)))

    @property
    def num_classes(self) -> int:
        return self.assignment.size

    def teacher_for(self, class_id: int) -> int:
        return int(self.assignment[class_id])


@dataclass(frozen=True, eq=False)
class IoUReport:
    """One member's per-class scores in [0, 1]: its IoU, or its student's
    certainty rho.  NaN marks an undefined class (an empty union, or no
    pixel where the student predicts the class)."""

    per_class: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.per_class, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("per-class IoU must be a non-empty 1-d array")
        defined = v[~np.isnan(v)]
        if defined.size and (defined.min() < 0.0 or defined.max() > 1.0):
            raise ValueError("IoU values must lie in [0, 1]")
        object.__setattr__(self, "per_class", _frozen(v))

    @property
    def num_classes(self) -> int:
        return self.per_class.size

    @property
    def miou(self) -> float:
        defined = self.per_class[~np.isnan(self.per_class)]
        if defined.size == 0:
            return float("nan")
        return float(defined.mean())


def stack_reports(reports: Sequence[IoUReport]) -> np.ndarray:
    """|C| x |T| array whose column t is ``reports[t].per_class`` (IoU or rho);
    raises if there is no report or their class counts differ."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one teacher report")
    sizes = {r.num_classes for r in reports}
    if len(sizes) != 1:
        raise ValueError(f"teacher reports disagree on class count: {sorted(sizes)}")
    return np.stack([r.per_class for r in reports], axis=1)


def check_same_grid(maps: Sequence, what: str = "map") -> None:
    """Raise if the maps disagree on (height, width) or class count."""
    first = maps[0]
    for m in maps[1:]:
        if (m.height, m.width) != (first.height, first.width):
            raise ValueError(
                f"{what} dimensions differ: "
                f"{(m.height, m.width)} vs {(first.height, first.width)}"
            )
        if m.num_classes != first.num_classes:
            raise ValueError(
                f"{what} class counts differ: {m.num_classes} vs {first.num_classes}"
            )

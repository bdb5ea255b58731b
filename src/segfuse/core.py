"""Core domain types for ensemble pseudo-label fusion.

Label maps, probability maps, feature maps, fusion policies and per-member score
reports are frozen dataclasses over numpy arrays.  Every array is
validated and marked read-only at construction time, so instances are
immutable and safe to share across threads.  Probabilities have one check,
``ProbabilityCheck``, which a ProbMap takes in one block and
``fileio.read_labels`` one .pmap chunk at a time; ``_all_finite`` is the
one finiteness test of probabilities, logits and features.
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


def _unwritable(arr: np.ndarray) -> bool:
    """True if neither ``arr`` nor any array or buffer under it is writable,
    as for a view of ``bytes`` or a fresh array frozen by its maker."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return memoryview(arr).readonly


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` of the non-empty array ``v``, without a bool
    array of its shape: NaN propagates through min and max, and an infinity
    is one of them."""
    return bool(np.isfinite(v.min()) and np.isfinite(v.max()))


class ProbabilityCheck:
    """The check that every probability vector of a map lies in [0, 1] and
    sums to 1 within PROB_SUM_TOL, taken block by block: ``add`` each block
    of whole probability vectors (an array whose last axis is the class
    axis), in any order, then ``verdict`` raises what the check over the
    whole map would raise.  The blocks leave three things: whether any
    value is non-finite, whether any lies outside [0, 1], and the worst
    exact deviation of the blocks whose screened sum fails.  Each is
    decided over the whole map, so the error and its printed worst
    deviation do not depend on how the map was cut.

    Blocks may be float32 or float64: the verdict is that of the per-pixel
    sums accumulated in float64, and float32 -> float64 is exact, so a
    float32 map gets the same verdict, message and worst deviation as its
    float64 copy.  A BLAS row sum in the block's own precision screens
    first; only a block it cannot pass is summed exactly, and only that
    sum raises.
    """

    def __init__(self):
        self.non_finite = False
        self.out_of_range = False
        self.worst = 0.0

    @property
    def failed(self) -> bool:
        """True once the blocks added so far fail the check."""
        return self.non_finite or self.out_of_range or self.worst > PROB_SUM_TOL

    def add(self, v: np.ndarray) -> None:
        """Take in the non-empty block ``v``, float32 or float64."""
        if self.non_finite:
            return
        # One range test; NaN and +-inf fail it too, and only then is the
        # block scanned again to tell the two errors apart.  After a range
        # failure only a non-finite value can change the verdict.
        if self.out_of_range or not (v.min() >= 0.0 and v.max() <= 1.0):
            self.out_of_range = True
            self.non_finite = not _all_finite(v)
            return
        # Any order of summing C terms in [0, 1] is off from the exact sum s
        # by at most about (C - 1) * eps / 2 * s, so a screened sum that
        # clears the tolerance by this margin proves the exact float64
        # verdict a pass.  Per-pixel float64 sums do not depend on the block.
        c = v.shape[-1]
        margin = 2 * c * np.finfo(v.dtype).eps * (1 + PROB_SUM_TOL)
        screened = v @ np.ones(c, v.dtype)
        screened -= 1
        if float(np.abs(screened, out=screened).max()) > PROB_SUM_TOL - margin:
            dev = float(np.abs(v.sum(axis=-1, dtype=np.float64) - 1.0).max())
            self.worst = max(self.worst, dev)

    def verdict(self) -> None:
        """Raise the error of the blocks added so far, if they fail."""
        if self.non_finite:
            raise ValueError("probability map contains non-finite values")
        if self.out_of_range:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.worst > PROB_SUM_TOL:
            raise ValueError(
                f"per-pixel probabilities must sum to 1 (worst deviation {self.worst:.3e})"
            )


@dataclass(frozen=True, eq=False)
class ProbMap:
    """H x W x C map of per-pixel class probabilities.

    Values are kept as float64 in memory (training and loss code needs
    64-bit accumulation) and checked by one ``ProbabilityCheck`` block; the
    on-disk format is float32.  A .pmap file is read for its labels alone:
    ``fileio.read_labels`` runs the same check on its float32 body one
    chunk at a time and argmaxes each chunk as it arrives.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"probability map must be H x W x C, got shape {v.shape}")
        h, w, c = v.shape
        if h < 1 or w < 1 or c < 2:
            raise ValueError(f"bad probability map shape {v.shape}")
        check = ProbabilityCheck()
        check.add(v)
        check.verdict()
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


def _check_feature_layout(dtype: np.dtype, shape: tuple) -> None:
    """Raise unless an array of ``dtype`` and ``shape`` can be a FeatureMap:
    real numbers on three non-empty axes.  ``fileio.read_feature_rows``
    takes these checks from a .npy header."""
    if dtype.kind not in "biuf":
        raise ValueError(f"feature map must hold real numbers, got dtype {dtype}")
    if len(shape) != 3:
        raise ValueError(f"feature map must be H x W x d, got shape {shape}")
    if min(shape) < 1:
        raise ValueError(f"bad feature map shape {shape}")


#: The error of a feature map holding NaN or an infinity.
_FEATURES_NOT_FINITE = "feature map contains non-finite values"


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """H x W x d map of real-valued per-pixel features, kept as float64."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        _check_feature_layout(v.dtype, v.shape)
        v = v.astype(np.float64, copy=False)
        if not _all_finite(v):
            raise ValueError(_FEATURES_NOT_FINITE)
        object.__setattr__(self, "values", _frozen(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def dims(self) -> int:
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
        # Ids >= num_classes are scanned only when there are any; then, as
        # UNLABELED_ID >= num_classes, every one of them must be the sentinel.
        n = self.num_classes
        if v.min(initial=0) < 0 or (
            v.max(initial=0) >= n
            and np.count_nonzero(v >= n) != np.count_nonzero(v == UNLABELED_ID)
        ):
            raise ValueError(
                f"label map contains ids outside [0, {n}) "
                f"that are not the unlabeled sentinel"
            )
        if not (v.dtype == np.uint16 and _unwritable(v)):
            v = _frozen(v.astype(np.uint16))
        object.__setattr__(self, "values", v)

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

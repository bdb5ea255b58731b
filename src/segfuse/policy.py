"""Fusion-policy constructors: random, oracle, and certainty-aware."""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .core import FusionPolicy, IoUReport, stack_reports


def select_random(num_classes: int, num_teachers: int, seed: int) -> FusionPolicy:
    """Assign each class an independently uniform random teacher."""
    if num_classes < 1 or num_teachers < 1:
        raise ValueError("need at least one class and one teacher")
    rng = np.random.default_rng(seed)
    return FusionPolicy(rng.integers(0, num_teachers, size=num_classes), num_teachers)


def _argmax_policy(scores: np.ndarray, kind: str) -> FusionPolicy:
    """Row-wise argmax with NaN ranked below everything; ties -> teacher 0..."""
    filled = np.where(np.isnan(scores), -np.inf, scores)
    empty = np.isnan(scores).all(axis=1)
    if empty.any():
        warnings.warn(
            f"{kind} undefined for classes {np.flatnonzero(empty).tolist()}; "
            f"assigning teacher 0",
            stacklevel=3,
        )
    return FusionPolicy(filled.argmax(axis=1), scores.shape[1])


def select_oracle(phis: Sequence[IoUReport]) -> FusionPolicy:
    """Greedy per-class argmax of teacher IoU (needs target ground truth)."""
    return _argmax_policy(stack_reports(phis), "per-class IoU")


def select_certainty(rhos: Sequence[IoUReport]) -> FusionPolicy:
    """Per-class argmax of average student certainty (ground-truth free)."""
    return _argmax_policy(stack_reports(rhos), "student certainty")

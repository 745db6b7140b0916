"""Per-class subsampling and stratified train/test splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MissingInputError
from ..rng import Rng


@dataclass
class SplitIndices:
    train: np.ndarray
    test: np.ndarray


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def subsample_indices(y, fraction: float, rng: Rng) -> np.ndarray:
    """Per-class sample without replacement keeping ~``fraction`` of each class.

    Counts use round-half-up with a floor of one row per non-empty class.
    The returned indices are sorted, so record order survives subsampling.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    y = np.asarray(y)
    if y.size == 0:
        raise MissingInputError("cannot subsample zero rows")
    keep = []
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        k = max(1, _round_half_up(fraction * rows.size))
        chosen = rng.spawn(f"subsample-{int(c)}").choice(rows.size, min(k, rows.size))
        keep.append(rows[chosen])
    return np.sort(np.concatenate(keep))


def stratified_split(y, fraction: float = 0.8, seed: int = 0) -> SplitIndices:
    """Seeded per-class shuffle, then a per-class cut at ``fraction``.

    The default 0.8 is the pipeline's one outer train/test split: ``train``
    and ``evaluate`` both draw it, so they agree on the held-out rows.

    The train count per class is round-half-up of fraction * n_c, clamped to
    [1, n_c - 1] so both sides stay non-empty; the clamp only moves the count
    for degenerate classes and stays within one row of the exact fraction.
    Classes with fewer than two rows cannot be split.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    y = np.asarray(y)
    if y.size == 0:
        raise MissingInputError("cannot split zero rows")
    root = Rng(seed)
    train_parts = []
    test_parts = []
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        if rows.size < 2:
            raise MissingInputError(f"class {c} has {rows.size} row(s); need at least 2")
        order = root.spawn(f"class-{int(c)}").permutation(rows.size)
        shuffled = rows[order]
        n_train = min(max(_round_half_up(fraction * rows.size), 1), rows.size - 1)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    assert train.size + test.size == y.size
    return SplitIndices(train=train, test=test)

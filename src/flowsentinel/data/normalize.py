"""Train-fitted min-max feature scaling to [0, 1].

Stats are always fitted on training rows only and then applied to
everything else; the output is clipped to [0, 1] so test values outside the
training range cannot leak out of bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MissingInputError


@dataclass
class FeatureStats:
    minimum: np.ndarray
    maximum: np.ndarray

    def to_dict(self) -> dict:
        return {"min": self.minimum.tolist(), "max": self.maximum.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStats":
        minimum = np.asarray(d["min"], dtype=np.float64)
        maximum = np.asarray(d["max"], dtype=np.float64)
        if minimum.shape != maximum.shape or not np.all(
                np.isfinite(minimum) & np.isfinite(maximum) & (minimum <= maximum)):
            raise ValueError("normalizer min and max must be equally long lists of finite "
                             "numbers with min <= max")
        return cls(minimum=minimum, maximum=maximum)


def fit_normalizer(X_train) -> FeatureStats:
    X_train = np.asarray(X_train)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise MissingInputError("fit_normalizer requires a non-empty 2-D matrix")
    # a float32 column's extremes are float32 numbers, exact in float64
    return FeatureStats(minimum=X_train.min(axis=0).astype(np.float64),
                        maximum=X_train.max(axis=0).astype(np.float64))


def apply_normalizer(X, stats: FeatureStats) -> np.ndarray:
    """``X`` scaled by ``stats`` as the float32 model input; the arithmetic is
    float64, in place on one copy of ``X``."""
    out = np.array(X, dtype=np.float64)
    span = stats.maximum - stats.minimum
    out -= stats.minimum
    out /= np.where(span > 0, span, 1.0)
    out[:, span == 0] = 0.0  # constant features map to zero
    np.clip(out, 0.0, 1.0, out=out)
    return out.astype(np.float32)

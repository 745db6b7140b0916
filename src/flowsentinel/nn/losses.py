"""Training losses: binary cross-entropy and sparse categorical cross-entropy.

Both losses average over the batch. Probabilities are clamped to
[EPSILON, 1 - EPSILON] before any log, so perfect predictions never produce
-ln 0. Each loss has one gradient, the fused form w.r.t. the pre-activation
logits that the training loop feeds backward: (p - y) / B for sigmoid + BCE,
and (probs - onehot(y)) / B for softmax + cross-entropy.

The losses do not check their labels: ``training`` checks every label
against the model's mode once, before it batches.
"""

from __future__ import annotations

import numpy as np

EPSILON = 1e-7


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, EPSILON, 1.0 - EPSILON)


def binary_cross_entropy(p, y) -> float:
    """Mean of -[y ln p + (1-y) ln(1-p)] over the batch; y must be 0/1."""
    p = np.atleast_1d(np.asarray(p, dtype=np.float64)).reshape(-1)
    y = np.atleast_1d(np.asarray(y)).reshape(-1)
    pc = _clamp(p)
    yf = y.astype(np.float64)
    return float(np.mean(-(yf * np.log(pc) + (1.0 - yf) * np.log(1.0 - pc))))


def binary_logit_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fused sigmoid+BCE gradient w.r.t. the logits: (p - y) / B."""
    y = np.asarray(y, dtype=p.dtype).reshape(p.shape)
    return (p - y) / p.shape[0]


def sparse_categorical_cross_entropy(probs, y) -> float:
    """Mean of -ln probs[y] over the batch; probs rows come from a softmax."""
    probs = np.asarray(probs, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y)).reshape(-1)
    n = probs.shape[0]
    picked = _clamp(probs[np.arange(n), y])
    return float(np.mean(-np.log(picked)))


def sparse_categorical_logit_grad(probs: np.ndarray, y) -> np.ndarray:
    """Fused softmax+CE gradient w.r.t. the logits: (probs - onehot(y)) / B."""
    y = np.atleast_1d(np.asarray(y)).reshape(-1)
    n = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad /= n
    return grad

"""Elementwise activations and their backward forms.

Forward functions are total on finite input. Backward forms take the upstream
gradient plus the *forward output* (cheaper and numerically cleaner than
recomputing from the pre-activation).
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad_out * out * (1.0 - out)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad_out * (1.0 - out * out)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` with max-subtraction for overflow safety."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


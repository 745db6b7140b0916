"""Elementwise activations and their backward forms.

Forward functions are total on finite input. Backward forms take the upstream
gradient plus the *forward output* (cheaper and numerically cleaner than
recomputing from the pre-activation).
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * tanh(0.5 * x) + 0.5, written to ``out`` when given (may be ``x``).

    The tanh form never overflows, so it needs no sign split, and it runs
    in place: the LSTM activates its gate buffer with it.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid_backward(grad_out: np.ndarray, out: np.ndarray,
                     grad_in: np.ndarray | None = None) -> np.ndarray:
    """grad_out * out * (1 - out), written to ``grad_in`` when given (it may
    be ``grad_out`` or ``out``)."""
    one_minus = 1.0 - out
    grad_in = np.multiply(grad_out, out, out=grad_in)
    grad_in *= one_minus
    return grad_in


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.tanh(x, out=out)


def tanh_backward(grad_out: np.ndarray, out: np.ndarray,
                  grad_in: np.ndarray | None = None) -> np.ndarray:
    """grad_out * (1 - out * out), written to ``grad_in`` when given (it may
    be ``grad_out`` or ``out``)."""
    local = np.multiply(out, out)
    np.subtract(1.0, local, out=local)
    return np.multiply(grad_out, local, out=grad_in)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` with max-subtraction for overflow safety."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


"""Finite-difference verification of analytic gradients.

Run in float64 (see :func:`flowsentinel.nn.tensor.precision`); central
differences with step h = 1e-5 are hopeless at float32. The relative error
per scalar is

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12)

and a check reports the max over each array plus the overall max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    per_array: dict = field(default_factory=dict)  # name -> max relative error
    max_rel_err: float = 0.0

    def __str__(self) -> str:
        lines = [f"  {name}: {err:.3e}" for name, err in self.per_array.items()]
        return "\n".join([f"max relative error: {self.max_rel_err:.3e}"] + lines)


def numeric_gradient(loss_fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``loss_fn()`` w.r.t. ``array`` (in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = loss_fn()
        flat[j] = orig - h
        down = loss_fn()
        flat[j] = orig
        gflat[j] = (up - down) / (2.0 * h)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return np.abs(analytic - numeric) / denom


def gradient_check(loss_fn, arrays: dict, analytic: dict, h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn`` recomputes the scalar loss from the current contents of each
    array in ``arrays`` (name -> np.ndarray, perturbed in place); ``analytic``
    maps the same names to the gradients produced by a backward pass.
    """
    report = GradCheckReport()
    for name, arr in arrays.items():
        numeric = numeric_gradient(loss_fn, arr, h=h)
        err = float(relative_errors(np.asarray(analytic[name], dtype=np.float64), numeric).max())
        report.per_array[name] = err
        report.max_rel_err = max(report.max_rel_err, err)
    return report


def check_layer(layer, x: np.ndarray, h: float = 1e-5, training: bool = True) -> GradCheckReport:
    """Gradient-check one layer under the loss sum(forward(x)).

    Covers the input gradient and every parameter gradient. The forward runs
    in training mode by default, since only a training forward keeps the
    cache that ``backward`` needs.
    """
    x = np.asarray(x, dtype=np.float64)

    def loss_fn() -> float:
        return float(np.sum(layer.forward(x, training=training)))

    for p in layer.parameters():
        p.grad.fill(0)
    out = layer.forward(x, training=training)
    grad_x = layer.backward(np.ones_like(out))

    arrays = {"input": x}
    analytic = {"input": grad_x}
    for p in layer.parameters():
        arrays[p.name] = p.value
        analytic[p.name] = p.grad.copy()
    return gradient_check(loss_fn, arrays, analytic, h=h)

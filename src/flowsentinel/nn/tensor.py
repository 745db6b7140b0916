"""Numeric substrate: dense numpy arrays plus precision control.

Tensors are plain ``np.ndarray`` values. Production code runs in
float32; gradient checking needs float64 because central finite differences
drown in float32 rounding noise. The active dtype is a module-level setting
that layer constructors consult, switchable with the :func:`precision`
context manager.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_ACTIVE_DTYPE = np.float32


def active_dtype():
    return _ACTIVE_DTYPE


@contextmanager
def precision(dtype):
    """Temporarily switch the default tensor dtype (e.g. ``np.float64``)."""
    global _ACTIVE_DTYPE
    previous = _ACTIVE_DTYPE
    _ACTIVE_DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _ACTIVE_DTYPE = previous

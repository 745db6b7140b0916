"""Deterministic, cross-platform random number generation.

Everything stochastic in this package (weight init, dropout masks, shuffles,
subsampling, bootstrap resampling) draws from :class:`Rng`, a counter-based
splitmix64 generator. The exact recurrence, so that streams can be reproduced
bit-for-bit in any language:

    GAMMA = 0x9E3779B97F4A7C15
    output(seed, i) = mix64(seed + (i + 1) * GAMMA)   (mod 2**64)

    mix64(z):
        z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2**64)
        z = (z XOR (z >> 27)) * 0x94D049BB133111EB    (mod 2**64)
        return z XOR (z >> 31)

The i-th output depends only on (seed, i), so batches of any size produce the
same stream as repeated single draws. Uniform doubles take the top 53 bits:
u = (output >> 11) * 2**-53, giving values in [0, 1).

Substreams are derived with ``spawn(label)``:

    child_seed = mix64(mix64(seed + GAMMA) XOR fnv1a64(label))

where fnv1a64 is the 64-bit FNV-1a hash of the label's UTF-8 bytes (integer
labels hash their decimal string form). Spawned streams are independent of
the parent's draw position, so parallel consumers stay reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _fnv1a64(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array, in place (array arithmetic wraps mod 2**64)."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


class Rng:
    """Counter-based splitmix64 stream (see module docstring for the spec)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed:#x}, counter={self._counter})"

    def spawn(self, label) -> "Rng":
        """Derive an independent child stream keyed by ``label``."""
        tag = _fnv1a64(label if isinstance(label, str) else str(int(label)))
        return Rng(_mix64(_mix64(self.seed + _GAMMA) ^ tag))

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        start = self._counter
        self._counter += n
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.seed)
        return _mix64_vec(z)

    def uniform(self, size, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform floats in [low, high) of shape ``size``."""
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * u).reshape(shape)

    def normal(self, size, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via the Box-Muller transform (two uniforms each)."""
        u1 = np.maximum(self.uniform(size), 2.0**-53)  # avoid log(0)
        u2 = self.uniform(size)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return mean + std * z

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n).

        Implemented as a stable argsort of n raw draws; ties (probability
        ~ n^2 / 2**64) fall back to index order, so the result is still
        deterministic.
        """
        return np.argsort(self.raw(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices sampled from range(n) without replacement."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n} without replacement")
        return self.permutation(n)[:k]

    def integers(self, n: int, size: int) -> np.ndarray:
        """``size`` integers in [0, n) via floor(u * n) on 53-bit uniforms."""
        u = self.uniform(size)
        return np.minimum((u * n).astype(np.int64), n - 1)

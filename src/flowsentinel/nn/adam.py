"""Adam (Kingma & Ba, ICLR 2015) over one flat parameter arena.

Per step t (1-based), for every parameter value with gradient g:

    m <- BETA1 * m + (1 - BETA1) * g
    v <- BETA2 * v + (1 - BETA2) * g^2
    value <- value - lr * (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)

Adam owns flat ``value``, ``grad``, ``m`` and ``v`` vectors; each
parameter's ``value`` and ``grad`` become views of its slice, in the order
given. A step checks that no gradient is NaN or Inf, then runs each ufunc
once over the whole arena, into preallocated scratch vectors.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, parameters, lr: float):
        self.parameters = list(parameters)
        self.lr = lr
        self.t = 0
        self.offsets = np.cumsum([0] + [p.value.size for p in self.parameters])
        n, dtype = self.offsets[-1], self.parameters[0].value.dtype
        self.value, self.grad, self.m, self.v, self._a, self._b = (np.zeros(n, dtype) for _ in range(6))
        self._finite = np.empty(n, dtype=bool)
        for p, start, end in zip(self.parameters, self.offsets, self.offsets[1:]):
            self.value[start:end] = p.value.ravel()
            self.grad[start:end] = p.grad.ravel()
            p.value = self.value[start:end].reshape(p.value.shape)
            p.grad = self.grad[start:end].reshape(p.grad.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def step(self) -> None:
        if not np.isfinite(self.grad, out=self._finite).all():
            first = np.argmin(self._finite)  # the first non-finite entry
            p = self.parameters[np.searchsorted(self.offsets, first, side="right") - 1]
            raise NumericError(f"non-finite gradient in {p.name}")
        self.t += 1
        g, m, v, a, b = self.grad, self.m, self.v, self._a, self._b
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - BETA2, out=a)
        np.divide(m, 1.0 - BETA1 ** self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(v, 1.0 - BETA2 ** self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        self.value -= a

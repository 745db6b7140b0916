"""Neural-network layers with explicit forward/backward passes.

Conventions shared by every layer:

* Input is always batched: dense input is ``[B, N]``, convolutional input
  is ``[B, C, L]``, recurrent input is ``[B, T, D]``. Layers neither adapt
  nor check shapes. ``Model._frame`` is the one place that turns feature
  rows into these layouts and checks their width; ``build`` fixes every
  parameter shape and refuses a conv or pool output that collapses below
  one step, and ``backward`` receives the gradient of the layer above it.
* A training forward (``training=True``) caches whatever ``backward``
  needs; ``backward`` consumes the cache, accumulates parameter gradients in
  place (``param.grad += ...``), returns the gradient w.r.t. the layer
  input, and clears the cache. Calling ``backward`` twice, or before a
  training ``forward``, raises :class:`MissingCacheError`.
* An inference forward (``training=False``, the default) keeps no cache and
  drops any earlier one, so it holds no input alive after it returns and a
  ``backward`` after it raises :class:`MissingCacheError`.
* Parameters are float32. Weight init is Glorot-uniform, limit
  sqrt(6 / (fan_in + fan_out)); biases start at zero except the LSTM forget
  gate, which starts at 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import MissingCacheError
from ..rng import Rng
from . import activations as act


class Parameter:
    """A trainable tensor and its gradient; Adam rebinds both to views of its arena."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)


def glorot_uniform(rng: Rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(size=shape, low=-limit, high=limit).astype(np.float32)


class Layer:
    """Base class: parameter bookkeeping plus the cache discipline."""

    def __init__(self):
        self._cache = None

    def parameters(self) -> list:
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise MissingCacheError(f"{type(self).__name__}.backward called without a cached forward")
        cache, self._cache = self._cache, None
        return cache


class Dense(Layer):
    """Affine map: out = x . W^T + b with W of shape [out, in]."""

    def __init__(self, in_features: int, out_features: int, rng: Rng, name: str = "dense"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            f"{name}/W", glorot_uniform(rng, (out_features, in_features), in_features, out_features)
        )
        self.bias = Parameter(f"{name}/b", np.zeros(out_features, dtype=np.float32))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x, training=False):
        self._cache = x if training else None
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad_out):
        x = self._take_cache()
        self.weight.grad += grad_out.T @ x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value


class Conv1D(Layer):
    """Valid cross-correlation, stride 1: out[b,o,t] = b[o] + sum_{c,k} W[o,c,k] x[b,c,t+k].

    Both passes are 2-D GEMMs over the im2col patch matrix (Chellapilla et
    al., 2006), held transposed with the batch index fastest,
    ``cols[(c, k), (t, b)] = x[b, c, t + k]`` of shape [C*K, T*B]:

        forward   out   = W . cols         [O, C*K] x [C*K, T*B]
        backward  dW    = g . cols^T       g: the output gradient as [O, T*B]
                  dcols = W^T . g, then a K-step col2im add

    The output and the input gradient are [B, C, L] views of [C, L, B]
    buffers. The elementwise layers between convolutions keep that layout,
    so they run over rows of length B, and ``g`` reaches the GEMMs without a
    copy. Only ``x`` is cached: backward rebuilds the patches rather than
    keeping a [C*K, T*B] matrix alive between the passes.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: Rng,
                 name: str = "conv"):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        fan_out = out_channels * kernel_size
        self.weight = Parameter(
            f"{name}/W",
            glorot_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, fan_out),
        )
        self.bias = Parameter(f"{name}/b", np.zeros(out_channels, dtype=np.float32))

    def parameters(self):
        return [self.weight, self.bias]

    def output_length(self, in_length: int) -> int:
        return in_length - self.kernel_size + 1

    def _patches(self, x: np.ndarray) -> np.ndarray:
        """im2col: [B, C, L] -> [C*K, T*B], batch index fastest."""
        b, c, length = x.shape
        t_out = self.output_length(length)
        windows = sliding_window_view(x, self.kernel_size, axis=2)  # [B, C, T, K]
        return windows.transpose(1, 3, 2, 0).reshape(c * self.kernel_size, t_out * b)

    def forward(self, x, training=False):
        b, _, length = x.shape
        t_out = self.output_length(length)
        out = self.weight.value.reshape(self.out_channels, -1) @ self._patches(x)
        out += self.bias.value[:, None]
        self._cache = x if training else None
        return out.reshape(self.out_channels, t_out, b).transpose(2, 0, 1)

    def backward(self, grad_out):
        x = self._take_cache()
        b, c_in, length = x.shape
        t_out = self.output_length(length)
        g = grad_out.transpose(1, 2, 0).reshape(self.out_channels, t_out * b)
        self.weight.grad += (g @ self._patches(x).T).reshape(self.weight.value.shape)
        self.bias.grad += g.sum(axis=1)
        dcols = self.weight.value.reshape(self.out_channels, -1).T @ g
        dcols = dcols.reshape(c_in, self.kernel_size, t_out, b)
        grad_in = np.zeros((c_in, length, b), dtype=dcols.dtype)
        for k in range(self.kernel_size):
            grad_in[:, k:k + t_out] += dcols[:, k]
        return grad_in.transpose(2, 0, 1)


class MaxPool1D(Layer):
    """Non-overlapping max pooling; a trailing remainder window is dropped.

    Forward is an elementwise ``np.maximum`` over the ``pool_size`` strided
    slices ``x[..., j::pool_size]``. Backward routes each output gradient to
    the first window position equal to the max, so ties resolve to the lower
    index (as ``argmax`` would), and the remainder gets zero gradient.
    """

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.pool_size = pool_size

    def output_length(self, in_length: int) -> int:
        return in_length // self.pool_size

    def _slices(self, x: np.ndarray):
        end = self.output_length(x.shape[2]) * self.pool_size
        return [x[:, :, j:end:self.pool_size] for j in range(self.pool_size)]

    def forward(self, x, training=False):
        out = functools.reduce(np.maximum, self._slices(x))
        self._cache = (x, out) if training else None
        return out

    def backward(self, grad_out):
        x, out = self._take_cache()
        # Elementwise ops over mixed memory layouts are slow at these short
        # rows, so bring the gradient to the layout of ``out`` (and of ``x``).
        g = np.empty_like(out, dtype=grad_out.dtype)
        g[...] = grad_out
        grad_in = np.empty_like(x, dtype=g.dtype)
        grad_in[:, :, out.shape[2] * self.pool_size:] = 0
        routed = None
        for window, grad_window in zip(self._slices(x), self._slices(grad_in)):
            hit = window == out
            if routed is None:
                routed = hit
            else:
                hit &= ~routed
                routed |= hit
            np.multiply(g, hit, out=grad_window)
        return grad_in


class ReLU(Layer):
    def forward(self, x, training=False):
        self._cache = x > 0 if training else None
        return act.relu(x)

    def backward(self, grad_out):
        return grad_out * self._take_cache()


class Flatten(Layer):
    """[B, C, L] -> [B, C*L] (row-major)."""

    def forward(self, x, training=False):
        self._cache = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._take_cache())


class Dropout(Layer):
    """Inverted dropout: training zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); inference is the identity.

    ``rng`` is the model's mask stream: ``build`` gives both of a model's
    dropout layers one ``Rng``, which they draw from in turn.

    A unit survives when its uniform draw ``u = (raw >> 11) * 2**-53`` is
    ``>= rate``. ``rate * 2**53`` is exact in float64, so the mask compares
    integers and makes no floats: ``raw >> 11 >= T`` with
    ``T = ceil(rate * 2**53)``, which holds exactly when ``raw >= T << 11``.
    ``rate < 1`` keeps ``T <= 2**53 - 1``, so ``T << 11`` fits in 64 bits, and
    the mask needs no shifted copy of the draws.
    """

    def __init__(self, rate: float, rng: Rng):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def forward(self, x, training=False):
        if not training:
            self._cache = None
            return x
        threshold = np.uint64(math.ceil(self.rate * 2.0**53) << 11)
        keep = self.rng.raw(x.size).reshape(x.shape) >= threshold
        scale = 1.0 / (1.0 - self.rate)
        mask = keep.astype(x.dtype) * x.dtype.type(scale)
        self._cache = mask
        return x * mask

    def backward(self, grad_out):
        return grad_out * self._take_cache()


class LSTM(Layer):
    """Single LSTM layer over a [B, T, D] sequence, hidden width H.

    Gate order in the stacked weight matrix is (i, f, g, o):

        z_t = [x_t ; h_{t-1}] . W + b              W: [(D+H), 4H]
        i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o)
        g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    with h_0 = c_0 = 0. ``return_sequences`` selects the full [B, T, H]
    output or just the final hidden state [B, H].

    Both modes run one loop over the steps. Step t writes ``x_t . W[:D]``
    into its [B, 4H] gate row, adds ``b`` and ``h_{t-1} . W[D:]`` (the row
    blocks ``W[:D]`` and ``W[D:]`` are views of ``W``), activates the row in
    place and writes ``c_t``, ``tanh(c_t)`` and ``h_t`` into their state
    rows. A training forward keeps every step for backward: a time-major
    [T, B, 4H] gate buffer and [T+1, B, H] state buffers whose row 0 is the
    zero state. An inference forward keeps no cache, so a backward after it
    raises :class:`MissingCacheError`; it reuses one gate row and two rows of
    each state in turn, and all of ``h`` only when ``return_sequences`` asks
    for it. The sequence output is a [B, T, H] view of the ``h`` buffer. Both
    modes run the same products, so their outputs match bit for bit; numpy
    runs a one-row batch's products as GEMV.

    Backward is full BPTT. It computes the local derivative factors of
    every step at once, leaves each step one small GEMM, ``dz_t . W[D:]^T``,
    plus a few elementwise ops, and finishes with one GEMM each for
    ``dW[:D]``, ``dW[D:]`` and the input gradient over the stacked gate
    gradients ``dz`` [T*B, 4H].
    """

    def __init__(self, input_dim: int, hidden: int, rng: Rng, return_sequences: bool,
                 name: str = "lstm"):
        super().__init__()
        self.input_dim = input_dim
        self.hidden = hidden
        self.return_sequences = return_sequences
        fan_in = input_dim + hidden
        fan_out = 4 * hidden
        self.weight = Parameter(
            f"{name}/W", glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out)
        )
        bias = np.zeros(4 * hidden, dtype=np.float32)
        bias[hidden: 2 * hidden] = 1.0  # forget gate starts open
        self.bias = Parameter(f"{name}/b", bias)

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x, training=False):
        b, t_steps, d = x.shape
        h = self.hidden
        w_x, w_h, bias = self.weight.value[:d], self.weight.value[d:], self.bias.value
        # Step t's gates sit in row t % len(z), and state s of c, tanh(c) and h
        # in row s % len(buffer): training keeps every row, inference reuses
        # one gate row and two state rows in turn.
        rows = t_steps + 1 if training else 2
        z = np.empty((rows - 1, b, 4 * h), dtype=np.result_type(x, w_x))
        cs = np.empty((rows, b, h), dtype=z.dtype)
        tcs = np.empty((rows - 1, b, h), dtype=z.dtype)
        hs = np.empty((t_steps + 1 if self.return_sequences else rows, b, h), dtype=z.dtype)
        cs[0] = 0
        hs[0] = 0
        for t in range(t_steps):
            z_t, tc_t = z[t % len(z)], tcs[t % len(tcs)]
            c_prev, c_t = cs[t % rows], cs[(t + 1) % rows]
            h_prev, h_t = hs[t % len(hs)], hs[(t + 1) % len(hs)]
            # np.matmul runs lstm0's K = 1 product ~5x slower than np.dot, and
            # np.dot runs lstm1's K = 64 product on a strided x_t ~1.6x slower
            (np.dot if d == 1 else np.matmul)(x[:, t], w_x, out=z_t)
            z_t += bias
            z_t += h_prev @ w_h
            g = act.tanh(z_t[:, 2 * h: 3 * h])
            act.sigmoid(z_t, out=z_t)  # one call over the whole row; the g block is put back
            z_t[:, 2 * h: 3 * h] = g
            np.multiply(z_t[:, h: 2 * h], c_prev, out=c_t)
            g *= z_t[:, :h]
            c_t += g
            act.tanh(c_t, out=tc_t)
            np.multiply(z_t[:, 3 * h:], tc_t, out=h_t)
        self._cache = (x, z, cs, tcs, hs) if training else None
        return hs[1:].transpose(1, 0, 2) if self.return_sequences else hs[t_steps % len(hs)]

    def backward(self, grad_out):
        x, z, cs, tcs, hs = self._take_cache()
        t_steps, b, _ = z.shape
        h = self.hidden
        d = self.input_dim
        if self.return_sequences:
            grad_seq = grad_out.transpose(1, 0, 2)
            dh = grad_seq[-1]
        else:
            dh = grad_out

        # Local factors of every step at once, written over the gates, so that
        # dz_(i,f,g) = dc_t * (r_i, r_f, r_g) and dz_o = dh_t * p, where
        # dc_t = dc_(t+1) * f_(t+1) + dh_t * q.
        dz = z.reshape(t_steps, b, 4, h)
        i, f, g, o = (dz[:, :, k] for k in range(4))
        forget = f.copy()  # the factors overwrite f and i, which are still needed
        i_kept = i.copy()
        q = act.tanh_backward(o, tcs)
        act.sigmoid_backward(tcs, o, grad_in=o)  # p
        act.sigmoid_backward(cs[:-1], f, grad_in=f)  # r_f
        act.sigmoid_backward(g, i, grad_in=i)  # r_i
        act.tanh_backward(i_kept, g, grad_in=g)  # r_g

        # The recurrence turns the factors into dz in place, one step at a time.
        w_h_t = self.weight.value[d:].T
        dc = np.zeros((b, h), dtype=z.dtype)
        for t in range(t_steps - 1, -1, -1):
            dz[t, :, 3] *= dh
            dc += dh * q[t]
            dz[t, :, :3] *= dc[:, None, :]
            if t == 0:
                break  # h_0 and c_0 are constants
            dc *= forget[t]
            dh = dz[t].reshape(b, 4 * h) @ w_h_t
            if self.return_sequences:
                dh += grad_seq[t - 1]

        dz = dz.reshape(t_steps * b, 4 * h)
        # a view when x is time-major in memory, as an LSTM's sequence output is
        x_flat = x.transpose(1, 0, 2).reshape(t_steps * b, d)
        self.weight.grad[:d] += x_flat.T @ dz
        self.weight.grad[d:] += hs[:-1].reshape(t_steps * b, h).T @ dz
        self.bias.grad += dz.sum(axis=0)
        grad_x = dz @ self.weight.value[:d].T
        return grad_x.reshape(t_steps, b, d).transpose(1, 0, 2)

"""Neural-network layers with explicit forward/backward passes.

Conventions shared by every layer:

* Input is always batched: dense input is ``[B, N]``, convolutional input
  is ``[B, C, L]``, recurrent input is ``[B, T, D]``. Layers do not adapt
  shapes; ``Model._frame`` is the one place that turns feature rows into
  these layouts.
* ``forward`` caches whatever ``backward`` needs; ``backward`` consumes the
  cache, accumulates parameter gradients in place (``param.grad += ...``),
  returns the gradient w.r.t. the layer input, and clears the cache.
  Calling ``backward`` twice, or before ``forward``, raises
  :class:`MissingCacheError`.
* Weight init is Glorot-uniform, limit sqrt(6 / (fan_in + fan_out)); biases
  start at zero except the LSTM forget gate, which starts at 1.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import (
    EmptySequenceError,
    InvalidRateError,
    MissingCacheError,
    ShapeMismatchError,
)
from ..rng import Rng
from . import activations as act
from .tensor import active_dtype


class Parameter:
    """A trainable tensor with its gradient and Adam moment accumulators."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: Rng, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(size=shape, low=-limit, high=limit).astype(dtype)


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

    def __init__(self, in_features: int, out_features: int, rng: Rng, name: str = "dense", dtype=None):
        super().__init__()
        dtype = dtype or active_dtype()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            f"{name}/W", glorot_uniform(rng, (out_features, in_features), in_features, out_features, dtype)
        )
        self.bias = Parameter(f"{name}/b", np.zeros(out_features, dtype=dtype))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x, training=False):
        if x.shape[1] != self.in_features:
            raise ShapeMismatchError(f"dense expects {self.in_features} inputs, got {x.shape[1]}")
        self._cache = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad_out):
        x = self._take_cache()
        if grad_out.shape != (x.shape[0], self.out_features):
            raise ShapeMismatchError(
                f"dense grad shape {grad_out.shape} != {(x.shape[0], self.out_features)}"
            )
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
    keeping a [C*K, T*B] matrix alive through inference.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: Rng,
                 name: str = "conv", dtype=None):
        super().__init__()
        if kernel_size < 1:
            raise ShapeMismatchError("kernel size must be >= 1")
        dtype = dtype or active_dtype()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        fan_out = out_channels * kernel_size
        self.weight = Parameter(
            f"{name}/W",
            glorot_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, fan_out, dtype),
        )
        self.bias = Parameter(f"{name}/b", np.zeros(out_channels, dtype=dtype))

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
        b, c_in, length = x.shape
        if c_in != self.in_channels:
            raise ShapeMismatchError(f"conv expects {self.in_channels} channels, got {c_in}")
        if length < self.kernel_size:
            raise ShapeMismatchError(f"input length {length} < kernel size {self.kernel_size}")
        t_out = self.output_length(length)
        out = self.weight.value.reshape(self.out_channels, -1) @ self._patches(x)
        out += self.bias.value[:, None]
        self._cache = x
        return out.reshape(self.out_channels, t_out, b).transpose(2, 0, 1)

    def backward(self, grad_out):
        x = self._take_cache()
        b, c_in, length = x.shape
        t_out = self.output_length(length)
        if grad_out.shape != (b, self.out_channels, t_out):
            raise ShapeMismatchError(
                f"conv grad shape {grad_out.shape} != {(b, self.out_channels, t_out)}"
            )
        g = grad_out.transpose(1, 2, 0).reshape(self.out_channels, t_out * b)
        self.weight.grad += (g @ self._patches(x).T).reshape(self.weight.shape)
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
        if pool_size < 1:
            raise ShapeMismatchError("pool size must be >= 1")
        self.pool_size = pool_size

    def output_length(self, in_length: int) -> int:
        return in_length // self.pool_size

    def _slices(self, x: np.ndarray):
        end = self.output_length(x.shape[2]) * self.pool_size
        return [x[:, :, j:end:self.pool_size] for j in range(self.pool_size)]

    def forward(self, x, training=False):
        length = x.shape[2]
        if self.output_length(length) < 1:
            raise ShapeMismatchError(f"input length {length} < pool size {self.pool_size}")
        out = functools.reduce(np.maximum, self._slices(x))
        self._cache = (x, out)
        return out

    def backward(self, grad_out):
        x, out = self._take_cache()
        if grad_out.shape != out.shape:
            raise ShapeMismatchError(f"pool grad shape {grad_out.shape} != {out.shape}")
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
        self._cache = x > 0
        return act.relu(x)

    def backward(self, grad_out):
        return grad_out * self._take_cache()


class Flatten(Layer):
    """[B, C, L] -> [B, C*L] (row-major)."""

    def forward(self, x, training=False):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._take_cache())


# Dropout's cache on the identity path: backward passes the gradient through,
# and a backward without a forward still finds no cache.
_PASS_THROUGH = object()


class Dropout(Layer):
    """Inverted dropout: training zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); inference is the identity."""

    def __init__(self, rate: float, rng: Rng | None = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidRateError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def bind_rng(self, rng: Rng) -> None:
        self.rng = rng

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._cache = _PASS_THROUGH
            return x
        if self.rng is None:
            raise InvalidRateError("dropout in training mode requires an Rng")
        keep = self.rng.uniform(size=x.shape) >= self.rate
        scale = 1.0 / (1.0 - self.rate)
        mask = keep.astype(x.dtype) * x.dtype.type(scale)
        self._cache = mask
        return x * mask

    def backward(self, grad_out):
        mask = self._take_cache()
        return grad_out if mask is _PASS_THROUGH else grad_out * mask


class LSTM(Layer):
    """Single LSTM layer over a [B, T, D] sequence, hidden width H.

    Gate order in the stacked weight matrix is (i, f, g, o):

        z_t = [x_t ; h_{t-1}] . W + b              W: [(D+H), 4H]
        i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o)
        g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    with h_0 = c_0 = 0. ``return_sequences`` selects the full [B, T, H]
    output or just the final hidden state [B, H]. Backward runs full BPTT
    across every step and gate.
    """

    def __init__(self, input_dim: int, hidden: int, rng: Rng, return_sequences: bool,
                 name: str = "lstm", dtype=None):
        super().__init__()
        dtype = dtype or active_dtype()
        self.input_dim = input_dim
        self.hidden = hidden
        self.return_sequences = return_sequences
        fan_in = input_dim + hidden
        fan_out = 4 * hidden
        self.weight = Parameter(
            f"{name}/W", glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out, dtype)
        )
        bias = np.zeros(4 * hidden, dtype=dtype)
        bias[hidden: 2 * hidden] = 1.0  # forget gate starts open
        self.bias = Parameter(f"{name}/b", bias)

    def parameters(self):
        return [self.weight, self.bias]

    def step(self, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
        """One recurrence step on a [B, D] slice; returns (h_t, c_t, gates)."""
        h = self.hidden
        if x_t.shape[1] != self.input_dim or h_prev.shape[1] != h or c_prev.shape[1] != h:
            raise ShapeMismatchError("lstm step received inconsistent shapes")
        z_in = np.concatenate([x_t, h_prev], axis=1)
        z = z_in @ self.weight.value + self.bias.value
        i = act.sigmoid(z[:, :h])
        f = act.sigmoid(z[:, h: 2 * h])
        g = act.tanh(z[:, 2 * h: 3 * h])
        o = act.sigmoid(z[:, 3 * h:])
        c_t = f * c_prev + i * g
        tc = act.tanh(c_t)
        h_t = o * tc
        return h_t, c_t, (z_in, i, f, g, o, c_prev, tc)

    def forward(self, x, training=False):
        b, t_steps, d = x.shape
        if t_steps < 1:
            raise EmptySequenceError("lstm requires at least one time step")
        if d != self.input_dim:
            raise ShapeMismatchError(f"lstm expects input dim {self.input_dim}, got {d}")
        dtype = x.dtype
        h_t = np.zeros((b, self.hidden), dtype=dtype)
        c_t = np.zeros((b, self.hidden), dtype=dtype)
        steps = []
        hs = np.empty((b, t_steps, self.hidden), dtype=dtype)
        for t in range(t_steps):
            h_t, c_t, gates = self.step(x[:, t, :], h_t, c_t)
            steps.append(gates)
            hs[:, t, :] = h_t
        self._cache = (steps, (b, t_steps, d))
        return hs if self.return_sequences else hs[:, -1, :]

    def backward(self, grad_out):
        steps, (b, t_steps, d) = self._take_cache()
        h = self.hidden
        if self.return_sequences:
            if grad_out.shape != (b, t_steps, h):
                raise ShapeMismatchError(f"lstm grad shape {grad_out.shape} != {(b, t_steps, h)}")
        else:
            if grad_out.shape != (b, h):
                raise ShapeMismatchError(f"lstm grad shape {grad_out.shape} != {(b, h)}")

        grad_x = np.zeros((b, t_steps, d), dtype=grad_out.dtype)
        dh_next = np.zeros((b, h), dtype=grad_out.dtype)
        dc_next = np.zeros((b, h), dtype=grad_out.dtype)
        dW = np.zeros_like(self.weight.value)
        db = np.zeros_like(self.bias.value)
        for t in range(t_steps - 1, -1, -1):
            z_in, i, f, g, o, c_prev, tc = steps[t]
            if self.return_sequences:
                dh = grad_out[:, t, :] + dh_next
            else:
                dh = (grad_out + dh_next) if t == t_steps - 1 else dh_next
            dc = dc_next + act.tanh_backward(dh * o, tc)
            dz = np.empty((b, 4 * h), dtype=grad_out.dtype)
            dz[:, :h] = act.sigmoid_backward(dc * g, i)
            dz[:, h: 2 * h] = act.sigmoid_backward(dc * c_prev, f)
            dz[:, 2 * h: 3 * h] = act.tanh_backward(dc * i, g)
            dz[:, 3 * h:] = act.sigmoid_backward(dh * tc, o)
            dW += z_in.T @ dz
            db += dz.sum(axis=0)
            d_in = dz @ self.weight.value.T
            grad_x[:, t, :] = d_in[:, :d]
            dh_next = d_in[:, d:]
            dc_next = dc * f
        self.weight.grad += dW
        self.bias.grad += db
        return grad_x

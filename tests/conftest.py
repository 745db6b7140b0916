"""Shared test oracles, independent of the library code paths they check."""

import numpy as np
import pytest

# twenty feature names: the input width of every model a test builds
FEATURES = [f"f{i}" for i in range(20)]


def central_difference(loss_fn, array, h=1e-5):
    """Forward-only finite-difference gradient; never touches backward()."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = loss_fn()
        array[idx] = orig - h
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())


def as_float64(layer_or_model):
    """Recast every parameter to float64 with a fresh zero gradient, in place.

    The library builds float32 parameters only; central differences with
    h = 1e-5 drown in float32 rounding, so the gradient checks run in float64.
    """
    for p in layer_or_model.parameters():
        p.value = p.value.astype(np.float64)
        p.grad = np.zeros_like(p.value)
    return layer_or_model


def check_layer(layer, x, h=1e-5):
    """Largest relative error of the input and parameter gradients under the
    loss sum(forward(x)). Every forward is a training one, since only that
    keeps the cache ``backward`` needs."""
    x = np.asarray(x, dtype=np.float64)

    def loss():
        return float(layer.forward(x, training=True).sum())

    for p in layer.parameters():
        p.grad.fill(0)
    out = layer.forward(x, training=True)
    worst = max_rel_err(layer.backward(np.ones_like(out)), central_difference(loss, x, h))
    for p in layer.parameters():
        worst = max(worst, max_rel_err(p.grad, central_difference(loss, p.value, h)))
    return worst


def brute_force_conv1d(x, w, b):
    """Cross-correlation by explicit loops over (out-channel, position, tap)."""
    c_out, c_in, k = w.shape
    _, length = x.shape
    t_out = length - k + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for t in range(t_out):
            acc = b[o]
            for c in range(c_in):
                for j in range(k):
                    acc += w[o, c, j] * x[c, t + j]
            out[o, t] = acc
    return out


def brute_force_conv1d_backward(x, w, grad_out):
    """(dW, db, dx) of a batched cross-correlation, by explicit loops over
    (batch, out-channel, in-channel, tap, position), accumulated in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    c_out, c_in, k = w.shape
    batch, _, t_out = grad_out.shape
    dw = np.zeros_like(w)
    db = np.zeros(c_out)
    dx = np.zeros_like(x)
    for b in range(batch):
        for o in range(c_out):
            for t in range(t_out):
                db[o] += grad_out[b, o, t]
            for c in range(c_in):
                for j in range(k):
                    for t in range(t_out):
                        dw[o, c, j] += grad_out[b, o, t] * x[b, c, t + j]
                        dx[b, c, t + j] += grad_out[b, o, t] * w[o, c, j]
    return dw, db, dx


def reference_lstm_step(x_t, h_prev, c_prev, W, b):
    """Hand-rolled single LSTM step (gate order i, f, g, o), scalar math only."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hid = h_prev.shape[-1]
    z = np.concatenate([x_t, h_prev]) @ W + b
    i = sig(z[:hid])
    f = sig(z[hid:2 * hid])
    g = np.tanh(z[2 * hid:3 * hid])
    o = sig(z[3 * hid:])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)

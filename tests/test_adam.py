"""Adam optimizer against a scalar hand-rolled oracle and a per-parameter reference."""

import math

import numpy as np
import pytest

from flowsentinel.data import ClassificationMode
from flowsentinel.errors import NumericError
from flowsentinel.models import build
from flowsentinel.nn import Adam, Parameter

from conftest import FEATURES


def scalar_adam_oracle(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float Adam, written independently of the library implementation."""
    w, m, v = w0, 0.0, 0.0
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        trajectory.append(w)
    return trajectory


def test_zero_gradient_is_noop():
    p = Parameter("w", np.array([1.0, -2.0, 3.0]))
    opt = Adam([p], lr=0.1)
    before = p.value.copy()
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.value, before)


def test_first_step_is_minus_lr_sign():
    # t=1: m_hat = g, v_hat = g^2, so the update is -lr * g / (|g| + eps).
    for g0 in (3.7, -0.004):
        p = Parameter("w", np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.grad[...] = g0
        opt.step()
        expected = 1.0 - 0.01 * g0 / (abs(g0) + 1e-8)
        assert p.value[0] == pytest.approx(expected, rel=1e-12)
        assert p.value[0] == pytest.approx(1.0 - 0.01 * math.copysign(1.0, g0), rel=1e-6)


def test_quadratic_trajectory_matches_scalar_oracle():
    p = Parameter("w", np.array([1.0], dtype=np.float64))
    opt = Adam([p], lr=0.1)
    got = []
    for _ in range(10):
        opt.zero_grad()
        p.grad[...] = 2.0 * p.value  # d/dw of w^2
        opt.step()
        got.append(float(p.value[0]))
    expected = scalar_adam_oracle(1.0, lambda w: 2.0 * w, lr=0.1, steps=10)
    assert np.allclose(got, expected, atol=1e-10, rtol=0)
    # same operations in the same order: float64 trajectories agree bit-for-bit
    assert got == expected


def test_loss_decreases_on_quadratic():
    p = Parameter("w", np.array([5.0]))
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        p.grad[...] = 2.0 * p.value
        opt.step()
    assert abs(p.value[0]) < 0.5


def test_non_finite_gradient_rejected():
    p = Parameter("w", np.array([1.0]))
    opt = Adam([p], lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(NumericError):
        opt.step()


def test_moments_start_at_zero_and_update():
    p = Parameter("w", np.array([1.0]))
    opt = Adam([p], lr=0.1)
    assert np.all(opt.m == 0) and np.all(opt.v == 0)
    p.grad[...] = 0.5
    opt.step()
    assert opt.m[0] == pytest.approx(0.05)
    assert opt.v[0] == pytest.approx(0.001 * 0.25)


class ReferenceAdam:
    """Adam with moments per parameter, one parameter at a time: the loop the
    flat arena replaced, kept as the oracle for its bits."""

    def __init__(self, parameters, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.moments = [(np.zeros_like(p.value), np.zeros_like(p.value)) for p in self.parameters]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, (m, v) in zip(self.parameters, self.moments):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.value -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.value.dtype, copy=False)


MODEL_CASES = [(arch, mode) for arch in ("cnn", "lstm") for mode in ("binary", "grouped", "multi")]


def built(arch, mode):
    return build(arch, ClassificationMode(mode), FEATURES, seed=3)


@pytest.mark.parametrize("arch,mode", MODEL_CASES)
def test_arena_matches_per_parameter_reference(arch, mode):
    model, reference = built(arch, mode), built(arch, mode)
    opt = Adam(model.parameters(), lr=0.001)
    oracle = ReferenceAdam(reference.parameters(), lr=0.001)
    rng = np.random.default_rng(5)
    for _ in range(200):
        # magnitudes spread log-uniformly over 1e-8..10, either sign
        g = 10.0 ** rng.uniform(-8.0, 1.0, size=opt.grad.size) * rng.choice([-1.0, 1.0], size=opt.grad.size)
        opt.grad[...] = g
        for p, start, end in zip(reference.parameters(), opt.offsets, opt.offsets[1:]):
            p.grad[...] = g[start:end].reshape(p.grad.shape)
        opt.step()
        oracle.step()
    for p, q in zip(model.parameters(), reference.parameters()):
        assert p.value.dtype == q.value.dtype == np.float32
        assert p.value.tobytes() == q.value.tobytes(), p.name


def test_parameters_are_views_of_the_arena_in_order():
    model = built("cnn", "binary")
    before = [p.value.copy() for p in model.parameters()]
    opt = Adam(model.parameters(), lr=0.001)
    assert opt.value.size == model.parameter_count()
    for p, value, start, end in zip(model.parameters(), before, opt.offsets, opt.offsets[1:]):
        assert np.array_equal(p.value, value)
        assert np.shares_memory(p.value, opt.value[start:end])
        assert np.shares_memory(p.grad, opt.grad[start:end])
    opt.grad[...] = 1.0
    opt.zero_grad()
    assert all(not p.grad.any() for p in model.parameters())


def test_non_finite_gradient_names_the_parameter_and_moves_nothing():
    model = built("lstm", "multi")
    opt = Adam(model.parameters(), lr=0.001)
    opt.grad[...] = 0.25
    opt.step()  # moments no longer zero
    state = [a.tobytes() for a in (opt.value, opt.m, opt.v)]
    bad = model.parameters()[2]  # lstm1/W, past the first parameter
    opt.grad[...] = 0.25
    bad.grad[0, 0] = np.nan  # its first entry: the slot where it starts in the arena
    model.parameters()[3].grad[0] = np.inf  # a later bad one is not the one named
    with pytest.raises(NumericError, match=f"in {bad.name}$"):
        opt.step()
    assert [a.tobytes() for a in (opt.value, opt.m, opt.v)] == state

"""Activations and loss functions against closed forms and finite differences."""

import math

import numpy as np
import pytest

from flowsentinel.nn import (
    binary_cross_entropy,
    binary_logit_grad,
    relu,
    sigmoid,
    sigmoid_backward,
    softmax,
    sparse_categorical_cross_entropy,
    sparse_categorical_logit_grad,
    tanh,
    tanh_backward,
)

from conftest import central_difference, max_rel_err


class TestActivations:
    def test_fixed_points(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert relu(np.array([-3.0]))[0] == 0.0
        assert tanh(np.array([0.0]))[0] == 0.0

    def test_softmax_symmetry(self):
        out = softmax(np.array([2.5, 2.5, 2.5, 2.5]))
        assert np.allclose(out, 0.25)

    def test_softmax_stability_large_inputs(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        # reference: max-subtracted evaluation at float64
        ref = np.exp(np.array([0.0, -1000.0]))
        ref /= ref.sum()
        assert np.allclose(out, ref)

    def test_softmax_rows_sum_to_one(self, np_rng):
        x = np_rng.normal(size=(32, 8))
        out = softmax(x, axis=-1)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out > 0) and np.all(out < 1)

    def test_softmax_stable_at_magnitude_1e4(self, np_rng):
        # At this spread exp underflows to exact zero, so only finiteness,
        # the [0, 1] range, and the row sums are meaningful.
        x = np_rng.normal(size=(32, 8)) * 1e4
        out = softmax(x, axis=-1)
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0)

    def test_sigmoid_matches_logistic_float64(self):
        x = np.linspace(-30.0, 30.0, 6001)
        assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14, atol=1e-16)

    def test_sigmoid_out_in_place(self, np_rng):
        x = np_rng.normal(size=(4, 6)).astype(np.float32)
        expected = sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, expected)

    def test_sigmoid_backward_matches_finite_differences(self, np_rng):
        x = np_rng.normal(size=16)

        def loss():
            return float(sigmoid(x).sum())

        grad = sigmoid_backward(np.ones(16), sigmoid(x))
        assert max_rel_err(grad, central_difference(loss, x)) < 1e-6

    def test_tanh_backward_matches_finite_differences(self, np_rng):
        x = np_rng.normal(size=16)

        def loss():
            return float(tanh(x).sum())

        grad = tanh_backward(np.ones(16), tanh(x))
        assert max_rel_err(grad, central_difference(loss, x)) < 1e-6


class TestBinaryCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        assert binary_cross_entropy(np.array([1.0]), np.array([1])) < 1e-6
        assert binary_cross_entropy(np.array([0.0]), np.array([0])) < 1e-6

    def test_coin_flip_is_ln2(self):
        assert binary_cross_entropy(np.array([0.5]), np.array([0])) == pytest.approx(math.log(2))
        assert binary_cross_entropy(np.array([0.5]), np.array([1])) == pytest.approx(math.log(2))

    def test_logit_grad_matches_finite_differences(self, np_rng):
        z = np_rng.normal(size=(6, 1))
        y = (np_rng.uniform(size=6) > 0.5).astype(int)

        def loss():
            return binary_cross_entropy(sigmoid(z), y)

        grad = binary_logit_grad(sigmoid(z), y)
        assert max_rel_err(grad, central_difference(loss, z)) < 1e-6


class TestSparseCategoricalCrossEntropy:
    def test_onehot_prediction_near_zero(self):
        probs = np.zeros((1, 8))
        probs[0, 3] = 1.0
        assert sparse_categorical_cross_entropy(probs, [3]) < 1e-6

    def test_uniform_is_ln_c(self):
        probs = np.full((1, 8), 1.0 / 8)
        assert sparse_categorical_cross_entropy(probs, [5]) == pytest.approx(math.log(8))

    def test_logit_grad_is_probs_minus_onehot(self, np_rng):
        z = np_rng.normal(size=(5, 8))
        y = np_rng.integers(0, 8, size=5)
        probs = softmax(z, axis=-1)
        grad = sparse_categorical_logit_grad(probs, y)
        onehot = np.zeros_like(probs)
        onehot[np.arange(5), y] = 1.0
        assert np.allclose(grad, (probs - onehot) / 5)

    def test_logit_grad_matches_finite_differences(self, np_rng):
        z = np_rng.normal(size=(4, 6))
        y = np_rng.integers(0, 6, size=4)

        def loss():
            return sparse_categorical_cross_entropy(softmax(z, axis=-1), y)

        grad = sparse_categorical_logit_grad(softmax(z, axis=-1), y)
        assert max_rel_err(grad, central_difference(loss, z)) < 1e-6

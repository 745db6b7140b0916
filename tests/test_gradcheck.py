"""The library's own gradient-check harness, validated on known-good and
known-bad gradients, then swept over randomized shapes."""

import numpy as np
import pytest

from flowsentinel.nn import LSTM, Conv1D, Dense, MaxPool1D, check_layer, gradient_check, precision
from flowsentinel.rng import Rng


def test_detects_correct_gradient():
    x = np.array([2.0, -1.0, 0.5])

    def loss():
        return float((x ** 2).sum())

    report = gradient_check(loss, {"x": x}, {"x": 2.0 * x})
    assert report.max_rel_err < 1e-8


def test_detects_wrong_gradient():
    x = np.array([2.0, -1.0, 0.5])

    def loss():
        return float((x ** 2).sum())

    report = gradient_check(loss, {"x": x}, {"x": 3.0 * x})  # deliberately wrong
    assert report.max_rel_err > 0.1


def test_dense_random_case():
    with precision(np.float64):
        layer = Dense(3, 4, Rng(5))
    x = np.random.default_rng(0).normal(size=(4, 3))
    report = check_layer(layer, x)
    assert report.max_rel_err < 1e-4


def test_conv_paper_adjacent_shape():
    with precision(np.float64):
        layer = Conv1D(2, 3, 3, Rng(6))
    x = np.random.default_rng(1).normal(size=(1, 2, 8))
    report = check_layer(layer, x)
    assert report.max_rel_err < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_randomized_shapes_all_layers(seed):
    rng = np.random.default_rng(seed)
    with precision(np.float64):
        conv = Conv1D(int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)), Rng(seed))
        dense = Dense(int(rng.integers(2, 6)), int(rng.integers(1, 5)), Rng(seed + 50))
        lstm = LSTM(int(rng.integers(1, 3)), int(rng.integers(2, 5)), Rng(seed + 100), return_sequences=bool(seed % 2))
    length = conv.kernel_size + int(rng.integers(0, 6))
    assert check_layer(conv, rng.normal(size=(2, conv.in_channels, length))).max_rel_err < 1e-4
    assert check_layer(dense, rng.normal(size=(3, dense.in_features))).max_rel_err < 1e-4
    t_steps = int(rng.integers(1, 5))
    x = rng.normal(size=(2, t_steps, lstm.input_dim))
    assert check_layer(lstm, x, training=True).max_rel_err < 1e-4
    pool = MaxPool1D(2)
    x = rng.permutation(12).astype(np.float64).reshape(1, 2, 6)  # distinct values: no ties
    assert check_layer(pool, x).max_rel_err < 1e-4

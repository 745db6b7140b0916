"""The tests' gradient oracle (``tests/conftest.py``), validated on known-good
and known-bad gradients, then swept over randomized layer shapes."""

import numpy as np
import pytest

from flowsentinel.nn import LSTM, Conv1D, Dense, MaxPool1D
from flowsentinel.rng import Rng

from conftest import as_float64, central_difference, check_layer, max_rel_err


def test_detects_correct_gradient():
    x = np.array([2.0, -1.0, 0.5])

    def loss():
        return float((x ** 2).sum())

    assert max_rel_err(2.0 * x, central_difference(loss, x)) < 1e-8


def test_detects_wrong_gradient():
    x = np.array([2.0, -1.0, 0.5])

    def loss():
        return float((x ** 2).sum())

    assert max_rel_err(3.0 * x, central_difference(loss, x)) > 0.1  # deliberately wrong


def test_dense_random_case():
    layer = as_float64(Dense(3, 4, Rng(5)))
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert check_layer(layer, x) < 1e-4


def test_conv_paper_adjacent_shape():
    layer = as_float64(Conv1D(2, 3, 3, Rng(6)))
    x = np.random.default_rng(1).normal(size=(1, 2, 8))
    assert check_layer(layer, x) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_randomized_shapes_all_layers(seed):
    rng = np.random.default_rng(seed)
    conv = as_float64(Conv1D(int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)), Rng(seed)))
    dense = as_float64(Dense(int(rng.integers(2, 6)), int(rng.integers(1, 5)), Rng(seed + 50)))
    lstm = as_float64(LSTM(int(rng.integers(1, 3)), int(rng.integers(2, 5)), Rng(seed + 100),
                           return_sequences=bool(seed % 2)))
    length = conv.kernel_size + int(rng.integers(0, 6))
    assert check_layer(conv, rng.normal(size=(2, conv.in_channels, length))) < 1e-4
    assert check_layer(dense, rng.normal(size=(3, dense.in_features))) < 1e-4
    t_steps = int(rng.integers(1, 5))
    x = rng.normal(size=(2, t_steps, lstm.input_dim))
    assert check_layer(lstm, x) < 1e-4
    pool = MaxPool1D(2)
    x = rng.permutation(12).astype(np.float64).reshape(1, 2, 6)  # distinct values: no ties
    assert check_layer(pool, x) < 1e-4

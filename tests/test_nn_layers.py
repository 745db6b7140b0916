"""Layer forward/backward contracts: hand values, brute-force oracles,
finite differences."""

import numpy as np
import pytest

from flowsentinel.errors import MissingCacheError
from flowsentinel.nn import Conv1D, Dense, Dropout, Flatten, MaxPool1D, ReLU
from flowsentinel.rng import Rng

from conftest import (
    as_float64,
    brute_force_conv1d,
    brute_force_conv1d_backward,
    central_difference,
    max_rel_err,
)


def make_conv(c_in, c_out, k, seed=0):
    return as_float64(Conv1D(c_in, c_out, k, Rng(seed)))


def set_conv(layer, w, b):
    layer.weight.value[...] = w
    layer.bias.value[...] = b


def one(sample):
    """A single sample as a batch of one; layers take batched input only."""
    return np.asarray(sample)[None]


class TestConv1DForward:
    def test_identity_kernel_passes_center(self):
        conv = make_conv(1, 1, 3)
        set_conv(conv, np.array([[[0.0, 1.0, 0.0]]]), np.array([0.0]))
        out = conv.forward(one([[1.0, 2.0, 3.0, 4.0]]))[0]
        assert np.allclose(out, [[2.0, 3.0]])

    def test_zero_kernel_yields_bias(self):
        conv = make_conv(1, 1, 3)
        set_conv(conv, np.zeros((1, 1, 3)), np.array([5.0]))
        out = conv.forward(one([[1.0, 2.0, 3.0, 4.0]]))[0]
        assert np.allclose(out, [[5.0, 5.0]])

    def test_edge_detector_matches_brute_force(self):
        conv = make_conv(1, 1, 3)
        w = np.array([[[1.0, 0.0, -1.0]]])
        set_conv(conv, w, np.array([0.0]))
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = conv.forward(one(x))[0]
        assert np.allclose(out, [[-2.0, -2.0]])
        assert np.allclose(out, brute_force_conv1d(x, w, np.array([0.0])))

    @pytest.mark.parametrize("case", range(8))
    def test_random_cases_match_brute_force(self, case, np_rng):
        c_in = int(np_rng.integers(1, 4))
        c_out = int(np_rng.integers(1, 5))
        k = int(np_rng.integers(1, 4))
        length = int(np_rng.integers(k, k + 8))
        x = np_rng.normal(size=(c_in, length))
        w = np_rng.normal(size=(c_out, c_in, k))
        b = np_rng.normal(size=c_out)
        conv = make_conv(c_in, c_out, k, seed=case)
        set_conv(conv, w, b)
        assert np.allclose(conv.forward(one(x))[0], brute_force_conv1d(x, w, b), atol=1e-12)

    def test_output_length_and_batching(self, np_rng):
        conv = make_conv(2, 3, 3)
        x = np_rng.normal(size=(4, 2, 10))
        out = conv.forward(x)
        assert out.shape == (4, 3, 8)
        single = conv.forward(one(x[0]))[0]
        assert single.shape == (3, 8)
        assert np.allclose(single, out[0])


class TestConv1DBackward:
    def test_zero_upstream_gradient(self, np_rng):
        conv = make_conv(2, 3, 3)
        x = np_rng.normal(size=(2, 8))
        out = conv.forward(one(x), training=True)
        w_before = conv.weight.grad.copy()
        grad_in = conv.backward(np.zeros_like(out))
        assert np.allclose(grad_in, 0)
        assert np.array_equal(conv.weight.grad, w_before)

    def test_identity_kernel_chain_rule(self):
        conv = make_conv(1, 1, 3)
        set_conv(conv, np.array([[[0.0, 1.0, 0.0]]]), np.array([0.0]))
        conv.forward(one([[1.0, 2.0, 3.0, 4.0]]), training=True)
        grad_in = conv.backward(one([[1.0, 1.0]]))[0]
        assert np.allclose(grad_in, [[0.0, 1.0, 1.0, 0.0]])

    def test_backward_requires_cache(self):
        conv = make_conv(1, 1, 3)
        with pytest.raises(MissingCacheError):
            conv.backward(np.ones((1, 2)))
        conv.forward(one(np.ones((1, 5))), training=True)
        conv.backward(one(np.ones((1, 3))))
        with pytest.raises(MissingCacheError):  # cache cleared after use
            conv.backward(one(np.ones((1, 3))))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        conv = make_conv(2, 3, 3, seed=seed)
        x = rng.normal(size=(1, 2, 8))

        def loss():
            return float(conv.forward(x).sum())

        conv.weight.grad.fill(0)
        conv.bias.grad.fill(0)
        out = conv.forward(x, training=True)
        grad_x = conv.backward(np.ones_like(out))
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4
        assert max_rel_err(conv.weight.grad, central_difference(loss, conv.weight.value)) < 1e-4
        assert max_rel_err(conv.bias.grad, central_difference(loss, conv.bias.value)) < 1e-4

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_model_conv1_shape_matches_loops(self, dtype, tol):
        # The CNN's second convolution: 32 -> 64 channels, kernel 3, length 9.
        rng = np.random.default_rng(7)
        conv = Conv1D(32, 64, 3, Rng(3))
        if dtype is np.float64:
            as_float64(conv)
        conv.bias.value[...] = rng.normal(size=64)
        # Non-contiguous views of both the input and the upstream gradient.
        x = rng.normal(size=(3, 9, 32)).astype(dtype).transpose(0, 2, 1)
        grad_out = rng.normal(size=(3, 7, 64)).astype(dtype).transpose(0, 2, 1)
        out = conv.forward(x, training=True)
        assert out.dtype == dtype
        for b in range(3):
            want = brute_force_conv1d(x[b], conv.weight.value, conv.bias.value)
            np.testing.assert_allclose(out[b], want, rtol=tol, atol=tol)
        conv.weight.grad.fill(0)
        conv.bias.grad.fill(0)
        grad_in = conv.backward(grad_out)
        dw, db, dx = brute_force_conv1d_backward(x, conv.weight.value, grad_out)
        assert grad_in.dtype == dtype and grad_in.shape == x.shape
        np.testing.assert_allclose(conv.weight.grad, dw, rtol=tol, atol=tol)
        np.testing.assert_allclose(conv.bias.grad, db, rtol=tol, atol=tol)
        np.testing.assert_allclose(grad_in, dx, rtol=tol, atol=tol)


class TestMaxPool1D:
    def test_pairwise_max(self):
        out = MaxPool1D(2).forward(one([[1.0, 3.0, 2.0, 5.0]]))[0]
        assert np.allclose(out, [[3.0, 5.0]])

    def test_tie_break_lower_index(self):
        pool = MaxPool1D(2)
        out = pool.forward(one([[7.0, 7.0, 7.0, 7.0]]), training=True)[0]
        assert np.allclose(out, [[7.0, 7.0]])
        grad_in = pool.backward(one([[1.0, 1.0]]))[0]
        assert np.allclose(grad_in, [[1.0, 0.0, 1.0, 0.0]])

    def test_trailing_remainder_dropped(self):
        out = MaxPool1D(2).forward(one([[1.0, 2.0, 9.0]]))[0]
        assert np.allclose(out, [[2.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool3_ties_and_remainder(self, dtype):
        pool = MaxPool1D(3)
        # Length 11 = 3 windows + a remainder of 2 holding the largest values.
        x = np.array([
            [[4, 4, 4, 1, 6, 6, 2, 0, 5, 9, 9]],
            [[0, 0, 0, 3, 2, 3, 7, 7, 1, 8, 8]],
        ], dtype=dtype)
        out = pool.forward(x, training=True)
        assert out.dtype == dtype
        assert np.array_equal(out, [[[4, 6, 5]], [[0, 3, 7]]])
        grad_in = pool.backward(np.array([[[1, 2, 3]], [[4, 5, 6]]], dtype=dtype))
        assert grad_in.dtype == dtype
        assert np.array_equal(grad_in, [
            [[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0]],
            [[4, 0, 0, 5, 0, 0, 6, 0, 0, 0, 0]],
        ])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool1D(2)
        pool.forward(one([[1.0, 3.0, 2.0, 5.0]]), training=True)
        grad_in = pool.backward(one([[1.0, 1.0]]))[0]
        assert np.allclose(grad_in, [[0.0, 1.0, 0.0, 1.0]])

    def test_backward_zero_is_zero(self):
        pool = MaxPool1D(2)
        pool.forward(np.ones((2, 3, 6)), training=True)
        assert np.allclose(pool.backward(np.zeros((2, 3, 3))), 0)

    def test_backward_requires_cache(self):
        with pytest.raises(MissingCacheError):
            MaxPool1D(2).backward(np.ones((1, 1)))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        # Spread values so no window ties within the finite-difference step.
        rng = np.random.default_rng(seed)
        pool = MaxPool1D(2)
        x = rng.permutation(18).astype(np.float64).reshape(1, 2, 9)

        def loss():
            return float(pool.forward(x).sum())

        pool.forward(x, training=True)
        grad_x = pool.backward(np.ones((1, 2, 4)))
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4


class TestDense:
    def test_identity_map(self):
        layer = as_float64(Dense(3, 3, Rng(0)))
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        x = np.array([1.5, -2.0, 0.25])
        assert np.allclose(layer.forward(one(x))[0], x)

    def test_zero_weights_bias_only(self):
        layer = as_float64(Dense(3, 2, Rng(0)))
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = [1.0, 2.0]
        assert np.allclose(layer.forward(one([9.0, 9.0, 9.0]))[0], [1.0, 2.0])

    def test_hand_matrix_vector(self):
        layer = as_float64(Dense(2, 2, Rng(0)))
        layer.weight.value[...] = [[1.0, 2.0], [3.0, 4.0]]
        layer.bias.value[...] = 0.0
        assert np.allclose(layer.forward(one([1.0, 1.0]))[0], [3.0, 7.0])

    def test_backward_identity_weights(self):
        layer = as_float64(Dense(3, 3, Rng(0)))
        layer.weight.value[...] = np.eye(3)
        layer.forward(one([1.0, 2.0, 3.0]), training=True)
        g = np.array([0.1, 0.2, 0.3])
        assert np.allclose(layer.backward(one(g))[0], g)

    def test_backward_zero_grad(self):
        layer = as_float64(Dense(3, 2, Rng(1)))
        layer.forward(one(np.ones(3)), training=True)
        assert np.allclose(layer.backward(one(np.zeros(2))), 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        layer = as_float64(Dense(3, 4, Rng(seed)))
        x = rng.normal(size=(5, 3))

        def loss():
            return float(layer.forward(x).sum())

        layer.weight.grad.fill(0)
        layer.bias.grad.fill(0)
        out = layer.forward(x, training=True)
        grad_x = layer.backward(np.ones_like(out))
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4
        assert max_rel_err(layer.weight.grad, central_difference(loss, layer.weight.value)) < 1e-4
        assert max_rel_err(layer.bias.grad, central_difference(loss, layer.bias.value)) < 1e-4


class TestFlatten:
    def test_round_trip(self, np_rng):
        flat = Flatten()
        x = np_rng.normal(size=(2, 3, 4))
        out = flat.forward(x, training=True)
        assert out.shape == (2, 12)
        back = flat.backward(out)
        assert np.array_equal(back, x)


class TestDropout:
    def test_rate_zero_is_identity(self):
        layer = Dropout(0.0, Rng(0))
        x = np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32)
        x[0, 0] = -0.0
        assert layer.forward(x, training=True).tobytes() == x.tobytes()  # a mask of 1.0
        assert np.allclose(layer.backward(np.full((4, 4), 3.0)), 3.0)
        with pytest.raises(MissingCacheError):  # the mask is consumed
            layer.backward(np.ones((4, 4)))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_inference_is_identity(self):
        layer = Dropout(0.8, Rng(0))
        x = np.full((10, 10), 3.0, dtype=np.float32)
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_mean_and_survivor_scale(self):
        layer = Dropout(0.5, Rng(2024))
        x = np.ones(10_000, dtype=np.float64)
        out = layer.forward(x, training=True)
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 2.0)
        assert abs(out.mean() - 1.0) < 0.05

    @pytest.mark.parametrize("rate", [0.2, 1 / 3, 0.5, 0.999])
    def test_mask_matches_uniform_rule(self, rate):
        x = np.ones((64, 20, 8))
        out = Dropout(rate, Rng(99)).forward(x, training=True)
        keep = Rng(99).uniform(size=x.shape) >= rate  # the same draws as floats
        assert np.array_equal(out != 0.0, keep)

    @pytest.mark.parametrize("rate", [0.2, 1 / 3, 0.5, 0.999])
    def test_mask_matches_uniform_rule_at_the_threshold(self, rate):
        # draws one unit either side of the rate, where a float/int slip would show
        class FixedDraws:
            def raw(self, n):
                k = int(np.ceil(rate * 2.0**53))
                return np.array([(k + j) << 11 for j in (-2, -1, 0, 1)] * (n // 4),
                                dtype=np.uint64)

        out = Dropout(rate, FixedDraws()).forward(np.ones(8), training=True)
        u = (FixedDraws().raw(8) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(out != 0.0, u >= rate)
        assert np.array_equal(out != 0.0, [False, False, True, True] * 2)

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 1 - 2.0**-53])
    def test_mask_matches_shifted_draws(self, rate):
        # the mask compares the unshifted draws with T << 11; these draws sit
        # either side of that bound, with the low 11 bits all set or all clear,
        # and at both ends of the uint64 range
        t = int(np.ceil(rate * 2.0**53))
        edges = [0, 2**64 - 1] + [min(max((t << 11) + j, 0), 2**64 - 1)
                                  for j in (-2049, -2048, -1, 0, 1, 2047, 2048)]
        draws = np.concatenate([np.array(edges, dtype=np.uint64), Rng(5).raw(4096)])

        class Draws:
            def raw(self, n):
                return draws[:n]

        out = Dropout(rate, Draws()).forward(np.ones(draws.size), training=True)
        assert np.array_equal(out != 0.0, (draws >> np.uint64(11)) >= np.uint64(t))

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, Rng(7))
        x = np.ones(1000, dtype=np.float64)
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones(1000))
        assert np.array_equal(grad, out)  # identical mask and scale


class TestReLULayer:
    def test_forward_backward(self):
        layer = ReLU()
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        out = layer.forward(x, training=True)
        assert np.allclose(out, [0, 0, 0, 1, 2])
        grad = layer.backward(np.ones(5))
        assert np.allclose(grad, [0, 0, 0, 1, 1])


# One small float64 input per layer, in the layout the layer takes.
CACHE_CASES = {
    "Dense": (lambda: as_float64(Dense(3, 2, Rng(0))), (4, 3)),
    "Conv1D": (lambda: as_float64(Conv1D(2, 3, 3, Rng(0))), (4, 2, 8)),
    "MaxPool1D": (lambda: MaxPool1D(2), (4, 2, 8)),
    "ReLU": (ReLU, (4, 5)),
    "Flatten": (Flatten, (4, 2, 3)),
    "Dropout": (lambda: Dropout(0.5, Rng(7)), (4, 5)),
}


class TestCacheContract:
    """Every layer caches for backward only in a training forward."""

    @pytest.mark.parametrize("kind", CACHE_CASES)
    def test_backward_after_inference_forward_raises(self, kind, np_rng):
        make, shape = CACHE_CASES[kind]
        layer = make()
        with pytest.raises(MissingCacheError):
            layer.backward(np.ones(shape))
        out = layer.forward(np_rng.normal(size=shape), training=False)
        assert layer._cache is None
        with pytest.raises(MissingCacheError):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("kind", CACHE_CASES)
    def test_inference_forward_drops_training_cache(self, kind, np_rng):
        make, shape = CACHE_CASES[kind]
        layer = make()
        x = np_rng.normal(size=shape)
        out = layer.forward(x, training=True)
        assert layer.backward(np.ones_like(out)).shape == shape  # the training cache works
        layer.forward(x, training=True)
        layer.forward(x, training=False)
        assert layer._cache is None
        with pytest.raises(MissingCacheError):
            layer.backward(np.ones_like(out))

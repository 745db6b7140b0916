"""LSTM step, sequence forward, and BPTT gradients."""

import tracemalloc

import numpy as np
import pytest

from flowsentinel.errors import MissingCacheError
from flowsentinel.nn import LSTM
from flowsentinel.rng import Rng

from conftest import as_float64, central_difference, max_rel_err, reference_lstm_step


def make_lstm(d, h, return_sequences=True, seed=0):
    return as_float64(LSTM(d, h, Rng(seed), return_sequences=return_sequences))


class TestStep:
    """One recurrence step, read from a training forward's cache: the
    activated gates [T, B, 4H] and the cell state [T+1, B, H] (row 0 is c_0)."""

    def test_all_zero_parameters(self):
        lstm = make_lstm(2, 3)
        lstm.weight.value[...] = 0.0
        lstm.bias.value[...] = 0.0
        h = lstm.forward(np.ones((1, 1, 2)), training=True)[:, 0]
        _, gates, cs, _, _ = lstm._cache
        i, f, g, o = np.split(gates[0], 4, axis=1)
        assert np.allclose(i, 0.5) and np.allclose(f, 0.5) and np.allclose(o, 0.5)
        assert np.allclose(g, 0.0)
        assert np.allclose(cs[1], 0.0)
        assert np.allclose(h, 0.0)

    def test_zero_weights_carry_cell(self):
        lstm = make_lstm(2, 3)
        lstm.weight.value[...] = 0.0
        lstm.bias.value[...] = 0.0
        lstm.weight.value[0, 6:9] = [0.4, -1.2, 2.0]  # x_0 drives the g block only
        x = np.array([[[1.0, 0.0], [0.0, 0.0]]])  # x_1 = 0, so the second step's g is 0
        h = lstm.forward(x, training=True)[:, 1]
        _, _, cs, _, _ = lstm._cache
        c_prev = cs[1]
        assert np.allclose(c_prev, 0.5 * np.tanh([[0.4, -1.2, 2.0]]))
        assert np.allclose(cs[2], 0.5 * c_prev)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_step(self, seed, np_rng):
        # the second step, from the nonzero state the first one left
        d, h = 3, 4
        lstm = make_lstm(d, h, seed=seed)
        x = np_rng.normal(size=(1, 2, d))
        got_h = lstm.forward(x, training=True)[0, 1]
        _, _, cs, _, hs = lstm._cache
        ref_h, ref_c = reference_lstm_step(x[0, 1], hs[1, 0], cs[1, 0], lstm.weight.value,
                                           lstm.bias.value)
        assert np.allclose(got_h, ref_h, atol=1e-6)
        assert np.allclose(cs[2, 0], ref_c, atol=1e-6)

    def test_hidden_state_bounded(self, np_rng):
        lstm = make_lstm(2, 8)
        h = lstm.forward(np_rng.normal(size=(4, 1, 2)) * 10)
        assert np.all(np.abs(h) <= 1.0)


class TestForward:
    def test_single_step_equals_step(self, np_rng):
        lstm = make_lstm(2, 4, return_sequences=False)
        x = np_rng.normal(size=(3, 1, 2))
        out = lstm.forward(x)
        for n in range(3):
            h, _ = reference_lstm_step(x[n, 0], np.zeros(4), np.zeros(4), lstm.weight.value,
                                       lstm.bias.value)
            assert np.allclose(out[n], h)

    def test_zero_weights_zero_output(self, np_rng):
        lstm = make_lstm(2, 4)
        lstm.weight.value[...] = 0.0
        lstm.bias.value[...] = 0.0
        out = lstm.forward(np_rng.normal(size=(2, 6, 2)))
        assert np.allclose(out, 0.0)

    def test_three_steps_match_unrolled_reference(self, np_rng):
        lstm = make_lstm(2, 3, return_sequences=True)
        x = np_rng.normal(size=(5, 2))  # one sample, T=5; the layer sees the first 3 steps
        out = lstm.forward(x[None, :3])[0]
        h = np.zeros(3)
        c = np.zeros(3)
        for t in range(3):
            h, c = reference_lstm_step(x[t], h, c, lstm.weight.value, lstm.bias.value)
            assert np.allclose(out[t], h, atol=1e-9)

    def test_float32_model_shape_matches_reference(self):
        # the model's second layer: 20 steps, width 64, a batch of 32
        lstm = LSTM(64, 64, Rng(6), return_sequences=True)
        x = np.random.default_rng(6).normal(size=(32, 20, 64)).astype(np.float32)
        out = lstm.forward(x)
        w = lstm.weight.value.astype(np.float64)
        b = lstm.bias.value.astype(np.float64)
        for n in range(x.shape[0]):
            h = np.zeros(64)
            c = np.zeros(64)
            for t in range(x.shape[1]):
                h, c = reference_lstm_step(x[n, t].astype(np.float64), h, c, w, b)
                assert np.abs(out[n, t] - h).max() < 1e-6

    def test_return_last_only(self, np_rng):
        seq = make_lstm(2, 3, return_sequences=True, seed=4)
        last = make_lstm(2, 3, return_sequences=False, seed=4)
        x = np_rng.normal(size=(2, 7, 2))
        assert np.allclose(seq.forward(x)[:, -1, :], last.forward(x))

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_training_flag_leaves_output_bitwise_equal(self, return_sequences):
        # both modes run the same products, one input product per step
        for dtype in (np.float32, np.float64):
            lstm = LSTM(3, 16, Rng(2), return_sequences=return_sequences)
            if dtype is np.float64:
                as_float64(lstm)
            for batch in (1, 37, 4096):
                x = np.random.default_rng(4).normal(size=(batch, 20, 3)).astype(dtype)
                trained = np.array(lstm.forward(x, training=True))
                inferred = np.array(lstm.forward(x, training=False))
                assert trained.dtype == inferred.dtype == dtype
                assert trained.tobytes() == inferred.tobytes(), (dtype, batch)

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_inference_memory_stays_one_step_wide(self, return_sequences):
        # the model's second layer over one 512-row inference chunk; a forward
        # that kept every step's gates would hold a [T, B, 4H] buffer
        t_steps, batch, hidden = 20, 512, 64
        lstm = LSTM(64, hidden, Rng(3), return_sequences=return_sequences)
        x = np.random.default_rng(3).normal(size=(batch, t_steps, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            lstm.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gate_buffer = t_steps * batch * 4 * hidden * 4
        assert peak < gate_buffer, f"peak {peak / 1e6:.1f} MB"


class TestBackward:
    def test_zero_grad_out_gives_zero(self, np_rng):
        lstm = make_lstm(2, 3, return_sequences=True)
        x = np_rng.normal(size=(2, 4, 2))
        out = lstm.forward(x, training=True)
        grad_x = lstm.backward(np.zeros_like(out))
        assert np.allclose(grad_x, 0)
        assert np.allclose(lstm.weight.grad, 0)

    def test_backward_requires_cache(self):
        lstm = make_lstm(2, 3)
        with pytest.raises(MissingCacheError):
            lstm.backward(np.zeros((1, 4, 3)))

    def test_inference_forward_keeps_no_cache(self, np_rng):
        lstm = make_lstm(2, 3)
        x = np_rng.normal(size=(2, 4, 2))
        lstm.forward(x, training=True)
        out = lstm.forward(x, training=False)  # drops the training cache too
        with pytest.raises(MissingCacheError):
            lstm.backward(np.ones_like(out))

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_matches_finite_differences_at_model_shape(self, return_sequences):
        # the model's 20 steps of a univariate sequence, a small batch and width
        rng = np.random.default_rng(5)
        lstm = make_lstm(1, 4, return_sequences=return_sequences, seed=8)
        x = rng.normal(size=(3, 20, 1))
        weights = rng.normal(size=lstm.forward(x).shape)

        def loss():
            return float((lstm.forward(x) * weights).sum())

        out = lstm.forward(x, training=True)
        grad_x = lstm.backward(weights.copy())
        assert out.shape == weights.shape
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4
        assert max_rel_err(lstm.weight.grad, central_difference(loss, lstm.weight.value)) < 1e-4
        assert max_rel_err(lstm.bias.grad, central_difference(loss, lstm.bias.value)) < 1e-4

    @pytest.mark.parametrize("t_steps,return_sequences", [(1, False), (1, True), (4, True), (4, False)])
    def test_matches_finite_differences(self, t_steps, return_sequences):
        rng = np.random.default_rng(31 + t_steps)
        d, h = 2, 3
        lstm = make_lstm(d, h, return_sequences=return_sequences, seed=t_steps)
        x = rng.normal(size=(2, t_steps, d))

        def loss():
            return float(lstm.forward(x).sum())

        lstm.weight.grad.fill(0)
        lstm.bias.grad.fill(0)
        out = lstm.forward(x, training=True)
        grad_x = lstm.backward(np.ones_like(out))
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4
        assert max_rel_err(lstm.weight.grad, central_difference(loss, lstm.weight.value)) < 1e-4
        assert max_rel_err(lstm.bias.grad, central_difference(loss, lstm.bias.value)) < 1e-4

    def test_stacked_lstms_match_finite_differences(self):
        # Two layers chained, mirroring the model topology.
        rng = np.random.default_rng(77)
        first = make_lstm(2, 3, return_sequences=True, seed=11)
        second = make_lstm(3, 3, return_sequences=False, seed=12)
        x = rng.normal(size=(2, 4, 2))

        def loss():
            return float(second.forward(first.forward(x)).sum())

        for p in first.parameters() + second.parameters():
            p.grad.fill(0)
        out = second.forward(first.forward(x, training=True), training=True)
        grad_mid = second.backward(np.ones_like(out))
        grad_x = first.backward(grad_mid)
        assert max_rel_err(grad_x, central_difference(loss, x)) < 1e-4
        for p in first.parameters() + second.parameters():
            assert max_rel_err(p.grad, central_difference(loss, p.value)) < 1e-4, p.name

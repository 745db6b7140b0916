"""Model construction, shape chain, parameter counts, prediction, FSNN files."""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from flowsentinel import models
from flowsentinel.data import ClassificationMode, FeatureStats
from flowsentinel.errors import ConfigError, SchemaError, ShapeMismatchError
from flowsentinel.models import build, load, save
from flowsentinel.nn import Conv1D, Dense, Dropout, MaxPool1D
from flowsentinel.rng import Rng

from conftest import FEATURES, as_float64


def build_of(arch, mode, seed=0):
    return build(arch, ClassificationMode(mode), FEATURES, seed=seed)


def cnn_param_formula(output_units):
    conv1 = 32 * (1 * 3) + 32
    conv2 = 64 * (32 * 3) + 64
    dense = 192 * output_units + output_units
    return conv1 + conv2 + dense


def lstm_param_formula(output_units):
    layer1 = 4 * 64 * (1 + 64 + 1)
    layer2 = 4 * 64 * (64 + 64 + 1)
    dense = 64 * output_units + output_units
    return layer1 + layer2 + dense


class TestBuild:
    def test_cnn_binary_parameter_count(self):
        # formula oracle, computed before the build: 128 + 6208 + 193
        assert cnn_param_formula(1) == 6529
        model = build_of("cnn", "binary", seed=0)
        assert model.parameter_count() == 6529

    def test_lstm_binary_parameter_count(self):
        # 4*64*(1+64+1) + 4*64*(64+64+1) + 65 = 16896 + 33024 + 65
        assert lstm_param_formula(1) == 49985
        model = build_of("lstm", "binary", seed=0)
        assert model.parameter_count() == 49985

    @pytest.mark.parametrize(
        "arch,mode,units",
        [("cnn", "grouped", 8), ("cnn", "multi", 34), ("lstm", "grouped", 8), ("lstm", "multi", 34)],
    )
    def test_head_sizes_follow_mode(self, arch, mode, units):
        model = build_of(arch, mode, seed=1)
        formula = cnn_param_formula(units) if arch == "cnn" else lstm_param_formula(units)
        assert model.parameter_count() == formula
        head = model.layers[-1]
        assert head.out_features == units

    def test_same_seed_bit_identical_parameters(self):
        a = build_of("cnn", "multi", seed=7)
        b = build_of("cnn", "multi", seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)
        c = build_of("cnn", "multi", seed=8)
        assert any(
            not np.array_equal(pa.value, pc.value) for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_shape_chain_20_to_192(self):
        model = build_of("cnn", "binary", seed=0)
        length = 20
        for layer in model.layers:
            if isinstance(layer, Conv1D):
                length = layer.output_length(length)
            elif isinstance(layer, MaxPool1D):
                length = layer.output_length(length)
        assert length == 3
        dense = model.layers[-1]
        assert isinstance(dense, Dense) and dense.in_features == 192

    def test_lstm_forget_gate_bias_is_one(self):
        model = build_of("lstm", "binary", seed=0)
        lstm0 = model.layers[0]
        h = lstm0.hidden
        assert np.all(lstm0.bias.value[h:2 * h] == 1.0)
        assert np.all(lstm0.bias.value[:h] == 0.0)

    def test_invalid_spec_rejected(self):
        # an unknown architecture, no features, and too few for the CNN's convolutions
        for arch, features in (("mlp", FEATURES), ("lstm", []), ("cnn", FEATURES[:4])):
            with pytest.raises(ConfigError):
                build(arch, ClassificationMode.BINARY, features)

    def test_lstm_dropout_layers_share_one_unused_stream(self):
        model = build_of("lstm", "binary", seed=9)
        first, second = (layer for layer in model.layers if isinstance(layer, Dropout))
        assert first.rng is second.rng
        assert first.rng.seed == Rng(9).spawn("dropout").seed
        # nothing drawn yet: the stream starts where a fresh spawn does
        assert np.array_equal(first.rng.raw(8), Rng(9).spawn("dropout").raw(8))


class TestForward:
    @pytest.mark.parametrize(
        "arch,mode,units",
        [("cnn", "binary", 1), ("cnn", "grouped", 8), ("cnn", "multi", 34),
         ("lstm", "binary", 1), ("lstm", "grouped", 8), ("lstm", "multi", 34)],
    )
    def test_output_shapes(self, arch, mode, units, np_rng):
        model = build_of(arch, mode, seed=0)
        out = model.forward(np_rng.uniform(size=(1, 20)).astype(np.float32))
        assert out.shape == (1, units)

    def test_binary_probabilities_in_unit_interval(self, np_rng):
        model = build_of("cnn", "binary", seed=2)
        out = model.forward(np_rng.uniform(size=(16, 20)).astype(np.float32))
        assert np.all(out > 0) and np.all(out < 1)

    def test_softmax_rows_sum_to_one(self, np_rng):
        for arch in ("cnn", "lstm"):
            model = build_of(arch, "multi", seed=3)
            out = model.forward(np_rng.uniform(size=(8, 20)).astype(np.float32))
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_inference_deterministic_with_dropout_layers(self, np_rng):
        model = build_of("lstm", "grouped", seed=4)
        x = np_rng.uniform(size=(5, 20)).astype(np.float32)
        a = model.forward(x, training=False)
        b = model.forward(x, training=False)
        assert np.array_equal(a, b)

    def test_wrong_feature_count_rejected(self, np_rng):
        model = build_of("cnn", "binary", seed=0)
        with pytest.raises(ShapeMismatchError):
            model.forward(np_rng.uniform(size=(2, 19)))
        with pytest.raises(ShapeMismatchError):
            model.forward(np_rng.uniform(size=20))  # a bare feature vector is not a batch

    def test_lstm_inference_forward_holds_one_step(self, np_rng):
        # lstm1 keeps one step of gates and state, not [T, B, 4H] and [T+1, B, H]
        model = build_of("lstm", "binary", seed=5)
        x = np_rng.uniform(size=(4096, 20)).astype(np.float32)
        model.forward(x[:8], training=True)  # training caches for inference to drop
        tracemalloc.start()
        try:
            model.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
        assert all(layer._cache is None for layer in model.layers)

    @pytest.mark.parametrize("rows", [1, 37, 300])
    def test_lstm_training_flag_leaves_output_bitwise_equal(self, rows, np_rng):
        # no dropout, so both forwards compute the same numbers; lstm1 reads
        # lstm0's time-major sequence through its 64-wide input GEMM
        model = build_of("lstm", "multi", seed=6)
        for layer in model.layers:
            if isinstance(layer, Dropout):
                layer.rate = 0.0
        x = np_rng.uniform(size=(rows, 20)).astype(np.float32)
        trained = model.forward(x, training=True)
        assert trained.tobytes() == model.forward(x, training=False).tobytes()


class TestPredict:
    def test_binary_threshold_at_half(self):
        model = build_of("cnn", "binary", seed=0)
        # drive the head so the sigmoid output is exactly 0.5
        head = model.layers[-1]
        head.weight.value[...] = 0.0
        head.bias.value[...] = 0.0
        pred = model.predict(np.zeros((3, 20), dtype=np.float32))
        assert np.all(pred == 1)  # p = 0.5 -> attack by the >= rule

    def test_argmax_of_peaked_output(self, np_rng):
        model = build_of("cnn", "grouped", seed=1)
        head = model.layers[-1]
        head.weight.value[...] = 0.0
        head.bias.value[...] = 0.0
        head.bias.value[5] = 50.0
        pred = model.predict(np_rng.uniform(size=(4, 20)).astype(np.float32))
        assert np.all(pred == 5)

    def test_uniform_tie_goes_to_class_zero(self):
        model = build_of("lstm", "grouped", seed=1)
        head = model.layers[-1]
        head.weight.value[...] = 0.0
        head.bias.value[...] = 0.0
        pred = model.predict(np.zeros((2, 20), dtype=np.float32))
        assert np.all(pred == 0)

    def test_argmax_invariant_under_monotone_logit_rescale(self, np_rng):
        model = build_of("cnn", "multi", seed=5)
        x = np_rng.uniform(size=(6, 20)).astype(np.float32)
        base = model.predict(x)
        logits = model._frame(x)
        for layer in model.layers:
            logits = layer.forward(logits)
        rescaled = np.argmax(3.0 * logits + 2.0, axis=1)
        assert np.array_equal(base, rescaled)


class TestInferenceChunks:
    """Inference runs ``INFERENCE_BATCH_ROWS`` rows per forward, so its memory
    does not grow with the input, and the chunk size does not change a bit.

    Known exceptions, measured on trained models over 4,000 rows and not
    tested here: a 1-row chunk runs as GEMV and changes rows' bits in both
    models, and so can a chunk whose size is not a multiple of 4 (LSTM: every
    such size from 1 to 69, and 127, 129, 511 and 999; CNN: 3, 7, 31, 43 and
    129), since BLAS computes a product's leftover rows with other kernels."""

    @pytest.mark.parametrize("arch", ["cnn", "lstm"])
    def test_probabilities_do_not_depend_on_the_chunk(self, arch, np_rng, monkeypatch):
        model = build_of(arch, "multi", seed=8)
        X = np_rng.uniform(size=(4000, 20)).astype(np.float32)

        def probs(rows):
            monkeypatch.setattr(models, "INFERENCE_BATCH_ROWS", rows)
            return np.concatenate([p for _, p in model.batches(X)]).tobytes()

        assert probs(512) == probs(1000) == probs(4096)

    @pytest.mark.parametrize("arch,mode", [("cnn", "multi"), ("lstm", "binary")])
    def test_predict_peak_memory_is_bounded(self, arch, mode, np_rng):
        model = build_of(arch, mode, seed=9)
        peaks = []
        for rows in (4_000, 40_000):
            X = np_rng.uniform(size=(rows, 20)).astype(np.float32)
            tracemalloc.start()  # numpy reports its buffers to tracemalloc
            try:
                model.predict(X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8e6, f"peak {peaks[0] / 1e6:.1f} MB at 4,000 rows"
        assert peaks[1] < peaks[0] + 1e6, f"peaks {peaks[0] / 1e6:.1f}, {peaks[1] / 1e6:.1f} MB"


def with_header(model):
    """``model`` with the header fields that ``train`` fills in and ``load`` requires,
    and class names other than its mode's, which ``load`` must read from the header."""
    model.class_names = [f"c{i}" for i in range(len(model.mode.classes))]
    model.normalizer = FeatureStats(minimum=np.zeros(20), maximum=np.ones(20))
    model.cache_sha256 = "0f" * 32
    return model


class TestSerialization:
    def roundtrip(self, model, tmp_path):
        path = tmp_path / "model.fsnn"
        save(with_header(model), path)
        return load(path), path

    @pytest.mark.parametrize("arch,mode", [("cnn", "binary"), ("lstm", "multi"), ("cnn", "grouped")])
    def test_bit_exact_round_trip(self, arch, mode, tmp_path):
        model = build_of(arch, mode, seed=11)
        loaded, _ = self.roundtrip(model, tmp_path)
        assert (loaded.architecture, loaded.mode) == (model.architecture, model.mode)
        assert loaded.cache_sha256 == model.cache_sha256
        assert loaded.feature_names == model.feature_names
        assert loaded.class_names == model.class_names
        assert np.array_equal(loaded.normalizer.minimum, model.normalizer.minimum)
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value), pa.name

    def test_header_writes_each_fact_once(self, tmp_path):
        _, path = self.roundtrip(build_of("lstm", "grouped", seed=4), tmp_path)
        payload = path.read_bytes()[4:-4]
        version, length = struct.unpack_from("<BI", payload)
        assert version == 3
        assert sorted(json.loads(payload[5:5 + length])) == [
            "architecture", "cache_sha256", "classes", "features", "mode", "normalizer", "seed"]

    def test_truncated_file_rejected(self, tmp_path):
        model = build_of("cnn", "binary", seed=0)
        path = tmp_path / "model.fsnn"
        save(with_header(model), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(SchemaError):
            load(path)

    def test_flipped_byte_rejected(self, tmp_path):
        model = build_of("cnn", "binary", seed=0)
        path = tmp_path / "model.fsnn"
        save(with_header(model), path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SchemaError):
            load(path)

    @pytest.mark.parametrize("edit", ["name", "rank", "dim"])
    def test_parameter_record_unlike_the_header_model_rejected(self, tmp_path, edit):
        model = build_of("cnn", "binary", seed=0)
        path = tmp_path / "model.fsnn"
        save(with_header(model), path)
        payload = bytearray(path.read_bytes()[4:-4])
        at = payload.index(b"head/W") + len(b"head/W")  # the record's rank byte
        if edit == "name":
            payload[at - 1] = ord("X")
        elif edit == "rank":
            payload[at] += 1
        else:
            payload[at + 1] += 1  # the first dim's low byte
        path.write_bytes(b"FSNN" + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(SchemaError, match="parameter record 'head/W' does not match"):
            load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.fsnn"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(SchemaError):
            load(path)

    def test_spec_fields_survive_across_architectures(self, tmp_path):
        for arch, mode in (("cnn", "multi"), ("lstm", "binary")):
            model = build_of(arch, mode, seed=3)
            loaded, _ = self.roundtrip(model, tmp_path)
            assert loaded.architecture == arch
            assert loaded.mode.value == mode
            assert loaded.rng_seed == 3

    @pytest.mark.parametrize("arch", ["cnn", "lstm"])
    def test_parameters_and_probabilities_are_float32(self, arch, tmp_path, np_rng):
        model = build_of(arch, "multi", seed=2)
        loaded, _ = self.roundtrip(model, tmp_path)
        x = np_rng.uniform(size=(5, 20))  # float64 rows
        for m in (model, loaded):
            assert {p.value.dtype for p in m.parameters()} == {np.dtype(np.float32)}
            assert m.forward(x).dtype == np.float32
        # forward casts its input to the parameters' dtype, whatever that is
        assert as_float64(loaded).forward(x).dtype == np.float64

    def test_predictions_survive_round_trip(self, tmp_path, np_rng):
        model = build_of("lstm", "grouped", seed=9)
        x = np_rng.uniform(size=(10, 20)).astype(np.float32)
        before = model.forward(x)
        loaded, _ = self.roundtrip(model, tmp_path)
        assert np.array_equal(before, loaded.forward(x))

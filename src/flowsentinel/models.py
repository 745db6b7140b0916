"""The two classifier architectures, built declaratively over 20 flow features.

CNN:  conv(32, k=3) -> relu -> pool(2) -> conv(64, k=3) -> relu -> pool(2)
      -> flatten -> dense(units)
      consuming the feature vector as a 1-channel, length-20 signal
      (lengths 20 -> 18 -> 9 -> 7 -> 3, flatten 192).

LSTM: lstm(64, sequences) -> dropout(0.2) -> lstm(64, last) -> dropout(0.2)
      -> dense(units)
      consuming the feature vector as a 20-step univariate sequence.

Binary mode uses a single sigmoid unit; grouped/multi use a softmax head of
one unit per class. A model is built from three facts: its architecture, its
classification mode and its feature list, whose length is its input width.
``forward`` returns probabilities; the training loop turns them into the
fused loss gradient w.r.t. the logits and feeds it straight to the head.

Model files (FSNN) are self-contained for deployment: besides the layer
parameters, their JSON header (:func:`model_header`) carries the
architecture, mode, seed, feature list, class names, the train-fitted min-max
normalizer and the sha256 of the dataset cache the model was trained on, each
once; a CRC-32 guards everything after the magic.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data.labels import ClassificationMode
from .data.normalize import FeatureStats
from .errors import ConfigError, SchemaError, ShapeMismatchError
from .nn import LSTM, Conv1D, Dense, Dropout, Flatten, MaxPool1D, ReLU, sigmoid, softmax
from .rng import Rng

MAGIC = b"FSNN"
FORMAT_VERSION = 3

ARCHITECTURES = ("cnn", "lstm")

# Rows per inference forward pass (validation, evaluate, predict); bounds the
# activations held at once, so inference memory does not grow with the input.
# Swept over 128-4,096 (2 vCPU, OpenBLAS 0.3.31): lstm-train's predict peaked at
# 40.0 MB at 512 against 69.4 MB at 4,096, and an LSTM predict over 4,000 rows
# took 247 ms at 512, 265 ms at 4,096, and 275 and 311 ms at 256 and 128.
INFERENCE_BATCH_ROWS = 512

CNN_INPUT_LENGTH = 20
CNN_CONV_FILTERS = (32, 64)
CNN_KERNEL_SIZE = 3
CNN_POOL_SIZE = 2
LSTM_UNITS = 64
DROPOUT_RATE = 0.2


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class Model:
    architecture: str  # "cnn" | "lstm"
    mode: ClassificationMode
    layers: list
    rng_seed: int
    feature_names: list  # the model's input columns, in order; its width
    class_names: list  # names of the class indices, in order
    normalizer: FeatureStats | None = None
    cache_sha256: str | None = None  # the dataset cache trained on

    def parameters(self) -> list:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def _frame(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch)
        width = len(self.feature_names)
        if batch.ndim != 2 or batch.shape[1] != width:
            raise ShapeMismatchError(f"expected [batch, {width}] input, got {batch.shape}")
        if self.architecture == "cnn":
            return batch[:, None, :]  # one channel, length-20 signal
        return batch[:, :, None]  # 20 steps, one input dimension

    def forward(self, batch, training: bool = False) -> np.ndarray:
        """Probabilities: [B, 1] in (0,1) for binary, softmax rows otherwise,
        in the dtype of the model's parameters."""
        h = self._frame(batch).astype(self.layers[-1].weight.value.dtype, copy=False)
        for layer in self.layers:
            h = layer.forward(h, training=training)
        if self.mode is ClassificationMode.BINARY:
            return sigmoid(h)
        return softmax(h, axis=-1)

    def backward_from_logits(self, grad_logits: np.ndarray) -> None:
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def decide(self, probs: np.ndarray) -> tuple:
        """(class indices, confidences) from :meth:`forward` probabilities.

        The decision rule: binary thresholds at p >= 0.5, otherwise argmax
        (ties resolve to the lowest index); the confidence is the probability
        of the chosen class.
        """
        if self.mode is ClassificationMode.BINARY:
            p = probs[:, 0]
            attack = p >= 0.5
            return attack.astype(np.int64), np.where(attack, p, 1.0 - p)
        return np.argmax(probs, axis=1), probs.max(axis=1)

    def batches(self, X):
        """Yield ``(start, probs)`` for each slice of at most
        ``INFERENCE_BATCH_ROWS`` rows of ``X``, one inference forward each."""
        for start in range(0, len(X), INFERENCE_BATCH_ROWS):
            yield start, self.forward(X[start:start + INFERENCE_BATCH_ROWS])

    def predict(self, X) -> np.ndarray:
        """Class indices of every row of ``X`` (see :meth:`decide`)."""
        classes = np.empty(len(X), dtype=np.int64)
        for start, probs in self.batches(X):
            classes[start:start + len(probs)] = self.decide(probs)[0]
        return classes


def build(architecture: str, mode: ClassificationMode, feature_names, seed: int = 0) -> Model:
    """Instantiate a model over ``feature_names``, whose count is its input
    width, named with ``mode``'s classes, with Glorot-uniform weights,
    deterministic in seed; the LSTM's dropout layers share one mask stream,
    ``Rng(seed).spawn("dropout")``."""
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {architecture!r}")
    if not feature_names:
        raise ConfigError("a model needs a non-empty list of features")
    units = 1 if mode is ClassificationMode.BINARY else len(mode.classes)
    rng = Rng(seed).spawn("init")
    if architecture == "cnn":
        length = len(feature_names)
        layers = []
        in_channels = 1
        for i, filters in enumerate(CNN_CONV_FILTERS):
            conv = Conv1D(in_channels, filters, CNN_KERNEL_SIZE, rng.spawn(f"conv{i}"), name=f"conv{i}")
            layers.extend([conv, ReLU(), MaxPool1D(CNN_POOL_SIZE)])
            length = conv.output_length(length)
            if length < 1:
                raise ConfigError(f"conv{i} output collapsed to {length}")
            length //= CNN_POOL_SIZE
            if length < 1:
                raise ConfigError(f"pool{i} output collapsed to {length}")
            in_channels = filters
        flatten_len = in_channels * length
        if len(feature_names) == CNN_INPUT_LENGTH:
            assert flatten_len == 192, f"shape chain broken: flatten {flatten_len}"
        layers.append(Flatten())
        layers.append(Dense(flatten_len, units, rng.spawn("head"), name="head"))
    else:
        masks = Rng(seed).spawn("dropout")
        layers = [
            LSTM(1, LSTM_UNITS, rng.spawn("lstm0"), return_sequences=True, name="lstm0"),
            Dropout(DROPOUT_RATE, masks),
            LSTM(LSTM_UNITS, LSTM_UNITS, rng.spawn("lstm1"), return_sequences=False, name="lstm1"),
            Dropout(DROPOUT_RATE, masks),
            Dense(LSTM_UNITS, units, rng.spawn("head"), name="head"),
        ]
    return Model(architecture, mode, layers, seed, list(feature_names), list(mode.classes))


def model_header(model: Model) -> dict:
    """The FSNN header: every fact of the model but its parameters."""
    return {
        "architecture": model.architecture,
        "mode": model.mode.value,
        "seed": model.rng_seed,
        "features": list(model.feature_names),
        "classes": list(model.class_names),
        "normalizer": model.normalizer.to_dict() if model.normalizer else None,
        "cache_sha256": model.cache_sha256,
    }


def _record(p) -> bytes:
    """A parameter's record header in an FSNN file: its name (uint16 length,
    then UTF-8 bytes), its rank (uint8) and its dims (uint32 each); the
    parameter's float32 values follow it."""
    name = p.name.encode("utf-8")
    return struct.pack(f"<H{len(name)}sB{p.value.ndim}I", len(name), name, p.value.ndim,
                       *p.value.shape)


def save(model: Model, path) -> None:
    """Write an FSNN model file (see module docstring for the layout)."""
    header_raw = json.dumps(model_header(model), sort_keys=True).encode("utf-8")
    payload = bytearray(struct.pack("<BI", FORMAT_VERSION, len(header_raw)) + header_raw)
    params = model.parameters()
    payload += struct.pack("<I", len(params))
    for p in params:
        payload += _record(p)
        payload += np.ascontiguousarray(p.value, dtype="<f4").tobytes()
    crc = zlib.crc32(bytes(payload))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes(payload))
        fh.write(struct.pack("<I", crc))


def load(path) -> Model:
    """The model in an FSNN file; a header that ``train`` would not write, or a
    parameter that holds a NaN or infinite value, is a SchemaError."""
    blob = Path(path).read_bytes()
    if len(blob) < 13 or blob[:4] != MAGIC:
        raise SchemaError(f"{path}: bad magic")
    payload, (stored_crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise SchemaError(f"{path}: checksum mismatch")
    try:
        version, header_len = struct.unpack_from("<BI", payload)
        if version != FORMAT_VERSION:
            raise SchemaError(f"{path}: unsupported version {version}")
        offset = 5 + header_len  # past the version byte, the length and the header
        header = json.loads(payload[5:offset].decode("utf-8"))
        if not _is_int(header["seed"]):
            raise SchemaError(f"{path}: seed {header['seed']!r} is not an integer")
        for key in ("features", "classes"):
            names = header.get(key)
            if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
                raise SchemaError(f"{path}: '{key}' is not a list of names")
        mode = ClassificationMode(header["mode"])
        classes = header["classes"]
        if len(classes) != len(mode.classes) or len(set(classes)) != len(classes):
            raise SchemaError(f"{path}: 'classes' is not a list of {len(mode.classes)} "
                              f"distinct names")
        model = build(header["architecture"], mode, header["features"], seed=header["seed"])
        model.class_names = classes
        if header.get("normalizer") is None:
            raise SchemaError(f"{path}: model carries no normalizer")
        model.normalizer = FeatureStats.from_dict(header["normalizer"])
        width = len(model.feature_names)
        if model.normalizer.minimum.shape != (width,):
            raise SchemaError(f"{path}: normalizer does not have {width} features")
        model.cache_sha256 = header.get("cache_sha256")
        if not isinstance(model.cache_sha256, str):
            raise SchemaError(f"{path}: cache_sha256 {model.cache_sha256!r} is not a string")
        (n_params,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        params = model.parameters()
        if n_params != len(params):
            raise SchemaError(f"{path}: expected {len(params)} parameters, found {n_params}")
        for p in params:
            record = _record(p)
            if payload[offset:offset + len(record)] != record:
                raise SchemaError(f"{path}: parameter record {p.name!r} does not match "
                                  f"the {model.architecture} model of its header")
            offset += len(record)
            values = np.frombuffer(payload, dtype="<f4", count=p.value.size, offset=offset)
            offset += 4 * p.value.size
            if not np.isfinite(values).all():
                raise SchemaError(f"{path}: parameter {p.name!r} holds a NaN or infinite value")
            p.value[...] = values.reshape(p.value.shape)
        if offset != len(payload):
            raise SchemaError(f"{path}: {len(payload) - offset} trailing bytes")
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError and an unknown
    # mode; a header that build refuses (ConfigError) is a corrupt file too
    except (struct.error, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise SchemaError(f"{path}: malformed payload ({exc})") from exc
    return model

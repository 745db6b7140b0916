"""The two classifier architectures, built declaratively over 20 flow features.

CNN:  conv(32, k=3) -> relu -> pool(2) -> conv(64, k=3) -> relu -> pool(2)
      -> flatten -> dense(output_units)
      consuming the feature vector as a 1-channel, length-20 signal
      (lengths 20 -> 18 -> 9 -> 7 -> 3, flatten 192).

LSTM: lstm(64, sequences) -> dropout -> lstm(64, last) -> dropout
      -> dense(output_units)
      consuming the feature vector as a 20-step univariate sequence.

Binary mode uses a single sigmoid unit; grouped/multi use a softmax head.
``forward`` returns probabilities; the training loop turns them into the
fused loss gradient w.r.t. the logits and feeds it straight to the head.

Model files (FSNN) are self-contained for deployment: besides the layer
parameters they carry the feature list, class names, the train-fitted
min-max normalizer and the sha256 of the dataset cache the model was trained
on, guarded by a CRC-32 of everything after the magic.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data.labels import ClassificationMode
from .data.normalize import FeatureStats
from .errors import ConfigError, SchemaError, ShapeMismatchError
from .nn import LSTM, Conv1D, Dense, Dropout, Flatten, MaxPool1D, ReLU, sigmoid, softmax
from .rng import Rng

MAGIC = b"FSNN"
FORMAT_VERSION = 2

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
DEFAULT_DROPOUT = 0.2


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelSpec:
    architecture: str  # "cnn" | "lstm"
    mode: ClassificationMode
    input_features: int = CNN_INPUT_LENGTH
    dropout_rate: float = DEFAULT_DROPOUT

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if not _is_int(self.input_features) or self.input_features < 1:
            raise ConfigError(f"input_features {self.input_features!r} is not a positive int")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def output_units(self) -> int:
        return 1 if self.mode is ClassificationMode.BINARY else self.mode.class_count

    @property
    def output_activation(self) -> str:
        return "sigmoid" if self.mode is ClassificationMode.BINARY else "softmax"

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "mode": self.mode.value,
            "input_features": self.input_features,
            "dropout_rate": self.dropout_rate,
            "output_units": self.output_units,
            "output_activation": self.output_activation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            architecture=d["architecture"],
            mode=ClassificationMode(d["mode"]),
            input_features=d["input_features"],
            dropout_rate=d["dropout_rate"],
        )


@dataclass
class Model:
    spec: ModelSpec
    layers: list
    rng_seed: int
    feature_names: list = field(default_factory=list)
    class_names: list = field(default_factory=list)
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
        if batch.ndim != 2 or batch.shape[1] != self.spec.input_features:
            raise ShapeMismatchError(
                f"expected [batch, {self.spec.input_features}] input, got {batch.shape}"
            )
        if self.spec.architecture == "cnn":
            return batch[:, None, :]  # one channel, length-20 signal
        return batch[:, :, None]  # 20 steps, one input dimension

    def forward(self, batch, training: bool = False) -> np.ndarray:
        """Probabilities: [B, 1] in (0,1) for binary, softmax rows otherwise,
        in the dtype of the model's parameters."""
        h = self._frame(batch).astype(self.layers[-1].weight.value.dtype, copy=False)
        for layer in self.layers:
            h = layer.forward(h, training=training)
        if self.spec.output_activation == "sigmoid":
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
        if self.spec.mode is ClassificationMode.BINARY:
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


def build(spec: ModelSpec, seed: int = 0) -> Model:
    """Instantiate a model with Glorot-uniform weights, deterministic in seed;
    the LSTM's dropout layers share one mask stream, ``Rng(seed).spawn("dropout")``."""
    rng = Rng(seed).spawn("init")
    if spec.architecture == "cnn":
        length = spec.input_features
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
        if spec.input_features == CNN_INPUT_LENGTH:
            assert flatten_len == 192, f"shape chain broken: flatten {flatten_len}"
        layers.append(Flatten())
        layers.append(Dense(flatten_len, spec.output_units, rng.spawn("head"), name="head"))
    else:
        masks = Rng(seed).spawn("dropout")
        layers = [
            LSTM(1, LSTM_UNITS, rng.spawn("lstm0"), return_sequences=True, name="lstm0"),
            Dropout(spec.dropout_rate, masks),
            LSTM(LSTM_UNITS, LSTM_UNITS, rng.spawn("lstm1"), return_sequences=False, name="lstm1"),
            Dropout(spec.dropout_rate, masks),
            Dense(LSTM_UNITS, spec.output_units, rng.spawn("head"), name="head"),
        ]
    return Model(spec=spec, layers=layers, rng_seed=seed)


def save(model: Model, path) -> None:
    """Write an FSNN model file (see module docstring for the layout)."""
    header = {
        "spec": model.spec.to_dict(),
        "seed": model.rng_seed,
        "features": list(model.feature_names),
        "classes": list(model.class_names),
        "normalizer": model.normalizer.to_dict() if model.normalizer else None,
        "cache_sha256": model.cache_sha256,
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = bytearray()
    payload += struct.pack("<B", FORMAT_VERSION)
    payload += struct.pack("<I", len(header_raw))
    payload += header_raw
    params = model.parameters()
    payload += struct.pack("<I", len(params))
    for p in params:
        name_raw = p.name.encode("utf-8")
        payload += struct.pack("<H", len(name_raw))
        payload += name_raw
        payload += struct.pack("<B", p.value.ndim)
        payload += struct.pack(f"<{p.value.ndim}I", *p.value.shape)
        payload += np.ascontiguousarray(p.value, dtype="<f4").tobytes()
    crc = zlib.crc32(bytes(payload))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes(payload))
        fh.write(struct.pack("<I", crc))


def load(path) -> Model:
    """The model in an FSNN file; a header that ``train`` would not write is a SchemaError."""
    blob = Path(path).read_bytes()
    if len(blob) < 13 or blob[:4] != MAGIC:
        raise SchemaError(f"{path}: bad magic")
    payload, (stored_crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise SchemaError(f"{path}: checksum mismatch")
    try:
        offset = 0
        (version,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        if version != FORMAT_VERSION:
            raise SchemaError(f"{path}: unsupported version {version}")
        (header_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
        offset += header_len
        spec = ModelSpec.from_dict(header["spec"])
        if not _is_int(header["seed"]):
            raise SchemaError(f"{path}: seed {header['seed']!r} is not an integer")
        model = build(spec, seed=header["seed"])
        for key, count in (("features", spec.input_features), ("classes", spec.mode.class_count)):
            names = header.get(key)
            if not (isinstance(names, list) and len(names) == count
                    and all(isinstance(name, str) for name in names)):
                raise SchemaError(f"{path}: '{key}' is not a list of {count} names")
        model.feature_names, model.class_names = header["features"], header["classes"]
        if header.get("normalizer") is None:
            raise SchemaError(f"{path}: model carries no normalizer")
        model.normalizer = FeatureStats.from_dict(header["normalizer"])
        if model.normalizer.minimum.shape != (spec.input_features,):
            raise SchemaError(f"{path}: normalizer does not have {spec.input_features} features")
        model.cache_sha256 = header.get("cache_sha256")
        if not isinstance(model.cache_sha256, str):
            raise SchemaError(f"{path}: cache_sha256 {model.cache_sha256!r} is not a string")
        (n_params,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        params = model.parameters()
        if n_params != len(params):
            raise SchemaError(f"{path}: expected {len(params)} parameters, found {n_params}")
        for p in params:
            (name_len,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            name = payload[offset:offset + name_len].decode("utf-8")
            offset += name_len
            if name != p.name:
                raise SchemaError(f"{path}: parameter order mismatch at {name!r}")
            (ndim,) = struct.unpack_from("<B", payload, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", payload, offset)
            offset += 4 * ndim
            if shape != p.value.shape:
                raise SchemaError(f"{path}: shape mismatch for {name!r}")
            count = int(np.prod(shape))
            values = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
            p.value[...] = values.reshape(shape).astype(p.value.dtype)
        if offset != len(payload):
            raise SchemaError(f"{path}: {len(payload) - offset} trailing bytes")
    # ValueError covers json.JSONDecodeError and UnicodeDecodeError; a header spec
    # that ModelSpec or build refuses (ConfigError) is a corrupt file too
    except (struct.error, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise SchemaError(f"{path}: malformed payload ({exc})") from exc
    return model

"""Binary dataset cache (FSDS) plus a JSON metadata sidecar.

Layout, all integers little-endian:

    bytes 0..3   magic "FSDS"
    byte  4      format version (1)
    8 bytes      row count   (uint64)
    8 bytes      column count (uint64)
    per column   uint16 name length, then that many UTF-8 bytes
    rows*cols    float32 feature values, row-major
    rows         uint16 class indices

The sidecar ``<cache>.meta.json`` records what the binary layout cannot:
classification mode, class names, label histogram, and ingest provenance.
``write_cache`` builds it and ``read_cache`` reads and checks both files, so
no other code knows the sidecar's keys.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import SchemaError
from .labels import ClassificationMode

MAGIC = b"FSDS"
VERSION = 1


def write_cache(path, X, y, feature_names, mode: ClassificationMode, *, seed, subsample,
                report) -> None:
    """Write the cache of rows ``X`` with ``mode`` class indices ``y``, and its
    sidecar: the mode, its classes, the row count and class histogram, and
    the ingest ``seed``, ``subsample`` and ``report`` (an ``IngestReport``)."""
    X = np.ascontiguousarray(X, dtype=np.float32)
    y = np.ascontiguousarray(y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be [rows, cols] and y must match its row count")
    if X.shape[1] != len(feature_names):
        raise ValueError("feature name count must equal column count")
    classes = mode.classes
    if y.size and (y.min() < 0 or y.max() >= len(classes)):
        raise ValueError(f"class indices must index the {len(classes)} classes")
    meta = dict(mode=mode.value, classes=list(classes), seed=seed, subsample=subsample,
                rows=int(y.size), ingest_report=report.to_dict(), tool_version=__version__,
                class_histogram={classes[c]: int(n)
                                 for c, n in zip(*np.unique(y, return_counts=True))})
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<QQ", X.shape[0], X.shape[1]))
        for name in feature_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(X.astype("<f4", copy=False).tobytes())
        fh.write(y.astype("<u2").tobytes())
    Path(f"{path}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def read_cache(path):
    """Returns (X float32 [rows, cols], y int64 [rows], feature_names, sha256,
    mode): the file is read once, X is a read-only view of its bytes, and
    ``mode`` is the ClassificationMode its sidecar names, whose ``classes``
    the sidecar lists in index order. Every class index indexes them and
    every feature value is finite, as ``ingest`` writes them. A missing
    sidecar raises FileNotFoundError; any other fault, SchemaError."""
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    if len(blob) < 21 or bytes(view[:4]) != MAGIC:
        raise SchemaError(f"{path}: bad magic")
    if view[4] != VERSION:
        raise SchemaError(f"{path}: unsupported version {view[4]}")
    rows, cols = struct.unpack_from("<QQ", blob, 5)
    offset = 21
    names = []
    try:
        for _ in range(cols):
            (length,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            names.append(bytes(view[offset:offset + length]).decode("utf-8"))
            offset += length
    except struct.error as exc:
        raise SchemaError(f"{path}: truncated header") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: a column name is not UTF-8 ({exc.reason})") from exc
    expected = offset + rows * cols * 4 + rows * 2
    if len(blob) != expected:
        raise SchemaError(f"{path}: expected {expected} bytes, found {len(blob)}")
    X = np.frombuffer(view, dtype="<f4", count=rows * cols, offset=offset).reshape(rows, cols)
    offset += rows * cols * 4
    y = np.frombuffer(view, dtype="<u2", count=rows, offset=offset).astype(np.int64)
    mp = Path(f"{path}.meta.json")
    try:
        meta = json.loads(mp.read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"{mp}: not JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise SchemaError(f"{mp}: not a JSON object")
    if meta.get("mode") not in [mode.value for mode in ClassificationMode]:
        raise SchemaError(f"{mp}: unknown mode {meta.get('mode')!r}")
    mode = ClassificationMode(meta["mode"])
    classes = list(mode.classes)
    if meta.get("classes") != classes:
        raise SchemaError(f"{mp}: 'classes' does not name the "
                          f"{len(classes)} classes of {mode.value!r} mode in order")
    if y.size and y.max() >= len(classes):
        raise SchemaError(f"{path}: class index {y.max()} is not an index into the "
                          f"{len(classes)} classes of {mode.value!r} mode")
    if not np.isfinite(X).all():
        raise SchemaError(f"{path}: a feature value is NaN or infinite")
    return X, y, names, hashlib.sha256(blob).hexdigest(), mode

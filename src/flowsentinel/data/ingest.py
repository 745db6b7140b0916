"""Flow-CSV reading: ``read_flows`` is the one reader for ``ingest`` (through
``load_csv``, which drops and counts bad rows) and ``predict`` (which refuses
its input at the first bad row); ``parse_value`` is the one rule for a cell."""

from __future__ import annotations

import csv
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyInputError, MissingColumnError
from . import schema

CHUNK_ROWS = 512  # rows held as strings at once while parsing


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_retained: int = 0
    dropped: dict = field(default_factory=dict)  # reason -> count
    label_histogram: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    empty_input: bool = False

    def drop(self, reason: str, count: int = 1) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + count

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_retained": self.rows_retained,
            "rows_dropped": self.rows_dropped,
            "dropped_by_reason": dict(sorted(self.dropped.items())),
            "label_histogram": dict(sorted(self.label_histogram.items())),
            "files": list(self.files),
            "empty_input": self.empty_input,
        }


def parse_value(text: str):
    """Float value, or a drop reason string."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None, "non_numeric"
    if math.isnan(value):
        return None, "nan"
    if math.isinf(value):
        return None, "inf"
    return value, None


def read_flows(path, feature_columns, label_column=None):
    """One flow CSV as ``(X, labels, bad)``, columns matched by header name.

    ``X`` is float64 with one row per non-blank data line (NaN where a cell
    did not parse); ``labels`` holds the stripped label cells, or is None
    without a label column. ``bad`` lists ``(row_id, column, reason)`` for
    each row not to use: ``empty_label`` first, else the ``parse_value``
    reason of the first feature, in the given order, that is not a finite
    number (a cell missing from a short row is ``non_numeric``). ``row_id``
    counts non-blank data lines from 0. A missing column raises
    MissingColumnError.
    """
    features = list(feature_columns)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in features + ([label_column] if label_column is not None else []):
            if column not in header:
                raise MissingColumnError(column, str(path))
        at = [header.index(column) for column in features]
        pick = operator.itemgetter(*at)
        label_at = None if label_column is None else header.index(label_column)

        def cell(row, i):
            return row[i] if i < len(row) else None

        def fault(row):
            if label_at is not None and not (cell(row, label_at) or "").strip():
                return label_column, "empty_label"
            return next((column, reason) for column, i in zip(features, at)
                        if (reason := parse_value(cell(row, i))[1]))

        blocks, labels, bad = [], [], []
        rows = filter(None, reader)  # csv.reader yields [] for a blank line
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            block = np.empty((len(chunk), len(at)))
            for i, row in enumerate(chunk):
                try:
                    block[i] = pick(row)  # numpy converts each string with float()
                except (IndexError, ValueError):
                    block[i] = np.nan
            suspect = ~np.isfinite(block).all(axis=1)
            if label_at is not None:
                chunk_labels = [(cell(row, label_at) or "").strip() for row in chunk]
                suspect |= np.array([not text for text in chunk_labels], dtype=bool)
                labels += chunk_labels
            first = len(blocks) * CHUNK_ROWS
            bad += [(first + i, *fault(chunk[i])) for i in np.flatnonzero(suspect).tolist()]
            blocks.append(block)
    X = np.concatenate(blocks) if blocks else np.empty((0, len(at)))
    return X, (labels if label_at is not None else None), bad


def load_csv(paths, feature_columns=schema.FEATURE_COLUMNS, label_column=schema.LABEL_COLUMN):
    """Flow CSVs, read in the given order, as ``((X, labels), report)``.

    Every row ``read_flows`` flags is dropped and counted by its reason; the
    label histogram counts the rows kept, whatever their label.
    """
    paths = list(paths)
    if not paths:
        raise EmptyInputError("no input files")
    report = IngestReport(files=[str(path) for path in paths])
    blocks, labels = [], []
    for path in paths:
        X, file_labels, bad = read_flows(path, feature_columns, label_column)
        keep = np.ones(len(X), dtype=bool)
        for row_id, _, reason in bad:
            keep[row_id] = False
            report.drop(reason)
        report.rows_read += len(X)
        blocks.append(X[keep])
        labels += itertools.compress(file_labels, keep)
    report.rows_retained = len(labels)
    report.label_histogram = dict(Counter(labels))
    report.empty_input = report.rows_read == 0
    assert report.rows_retained + report.rows_dropped == report.rows_read
    return (np.concatenate(blocks), labels), report

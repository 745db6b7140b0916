"""Flow-CSV reading: ``iter_flows`` is the one reader, a block at a time, for
``ingest`` (through ``load_csv``, which drops and counts bad rows) and
``predict`` (which refuses its input at the first block with a bad row);
``parse_value`` is the one rule for a cell.

Blocks of lines that numpy's C tokenizer parses whole are taken from it: it
accepts a subset of what ``float()`` accepts, to the same bits. The blocks it
rejects, and the rest of a file from its first ``"`` on (a quoted cell may
span lines), go through ``csv.reader`` and ``parse_value`` cell by cell.

The CSV writers (the fixture, ``predictions.csv``) format one ``%`` string per
row and quote text with ``csv_cell``."""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import MissingInputError, SchemaError
from . import schema

CHUNK_ROWS = 64  # lines parsed at once: a block numpy rejects is parsed again, cell by cell
# ASCII separators numpy's tokenizer strips around a number and float() rejects
_UNVOUCHED = "\x1c\x1d\x1e\x1f"
# the smallest float64 that rounds to float32 inf (3.4028235677973366e38): a cell of
# this magnitude or more is "inf", since the float32 cache and model input cannot hold it
FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


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
    if abs(value) >= FLOAT32_OVERFLOW:
        return None, "inf"
    return value, None


def csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of more than one cell:
    quoted, with ``"`` doubled, only where csv's rules need it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text))
    return buf.getvalue()[1:-2]  # without the empty first cell's ',' and the '\r\n'


def _tokenized(lines, usecols):
    """The ``usecols`` cells of non-blank ``lines`` without ``"``, parsed by
    numpy's C tokenizer, or None where it cannot vouch for every line."""
    text = "".join(lines)
    if any(separator in text for separator in _UNVOUCHED):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
    except ValueError:
        return None
    return block if len(block) == len(lines) else None


def _decoded(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def iter_flows(path, feature_columns, label_column=None):
    """Yield one flow CSV as ``(X, labels, bad)`` blocks of at most
    ``CHUNK_ROWS`` rows, columns matched by header name.

    ``X`` is float64 with one row per non-blank data line (NaN where a cell
    did not parse); ``labels`` holds the stripped label cells, or is None
    without a label column. ``bad`` lists ``(row_id, column, reason)`` for
    each row not to use: ``empty_label`` first, else the ``parse_value``
    reason of the first feature, in the given order, that is not a number
    float32 can hold (a cell missing from a short row is ``non_numeric``).
    ``row_id`` counts non-blank data lines of the file from 0. A missing
    column, or a file that is not UTF-8, raises SchemaError.
    """
    features = list(feature_columns)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = _decoded(fh, path)
        reader = csv.reader(lines)
        header = next(reader, [])
        for column in features + ([label_column] if label_column is not None else []):
            if column not in header:
                raise SchemaError(f"missing column {column!r} in {path}")
        at = [header.index(column) for column in features]
        pick = operator.itemgetter(*at)
        label_at = None if label_column is None else header.index(label_column)

        def cell(row, i):
            return row[i] if i < len(row) else None

        def label_of(row):
            return (cell(row, label_at) or "").strip()

        def fault(row):
            if label_at is not None and not label_of(row):
                return label_column, "empty_label"
            return next((column, reason) for column, i in zip(features, at)
                        if (reason := parse_value(cell(row, i))[1]))

        def label_in(line):  # label_of for a line without '"', which csv.reader splits at ','
            if line.count(",") == len(header) - 1:  # as wide as the header: split from the right
                return line.rsplit(",", len(header) - label_at)[label_at - len(header)].strip()
            return label_of(line.split(",", label_at + 1))

        done = 0

        def checked(block, block_labels, cells_of):  # cells_of(i): the block's row i as csv cells
            nonlocal done
            suspect = ~(np.abs(block) < FLOAT32_OVERFLOW).all(axis=1)  # NaN compares False
            if label_at is not None:
                suspect |= np.array([not text for text in block_labels], dtype=bool)
            bad = [(done + i, *fault(cells_of(i))) for i in np.flatnonzero(suspect).tolist()]
            done += len(block)
            return block, block_labels, bad

        def per_cell(rows):
            block = np.empty((len(rows), len(at)))
            for i, row in enumerate(rows):
                try:
                    block[i] = pick(row)  # numpy converts each string with float()
                except (IndexError, ValueError):
                    block[i] = np.nan
            return checked(block, [label_of(row) for row in rows] if label_at is not None
                           else None, rows.__getitem__)

        while block_lines := list(itertools.islice(lines, CHUNK_ROWS)):
            if any('"' in line for line in block_lines):  # a quoted cell may span lines
                # csv.reader reads the rest of the file, and yields [] for a blank line
                rows = filter(None, csv.reader(itertools.chain(block_lines, lines)))
                while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                    yield per_cell(chunk)
                return
            block_lines = [line for line in block_lines if line.rstrip("\r\n")]
            if block_lines and (block := _tokenized(block_lines, at)) is not None:
                yield checked(block, [label_in(line) for line in block_lines]
                              if label_at is not None else None,
                              lambda i: next(csv.reader([block_lines[i]])))
            else:
                yield per_cell(list(csv.reader(block_lines)))


def load_csv(paths):
    """Flow CSVs, read in the given order, as ``((X, labels), report)``.

    Every row ``iter_flows`` flags is dropped and counted by its reason; the
    label histogram counts the rows kept, whatever their label. ``X`` is
    float32, the cache's dtype: each block's kept rows are cast as they are
    read, so no float64 copy of the whole input is held. Equal labels are one
    ``str`` object, so the labels take memory per distinct label, not per row.
    """
    paths, features = list(paths), list(schema.FEATURE_COLUMNS)
    if not paths:
        raise MissingInputError("no input files")
    report = IngestReport(files=[str(path) for path in paths])
    blocks, labels, distinct = [np.empty((0, len(features)), np.float32)], [], {}
    for path in paths:
        first = 0  # the row id of the block's first row in its file
        for X, block_labels, bad in iter_flows(path, features, schema.LABEL_COLUMN):
            keep = np.ones(len(X), dtype=bool)
            for row_id, _, reason in bad:
                keep[row_id - first] = False
                report.drop(reason)
            first += len(X)
            blocks.append(X[keep].astype(np.float32))
            labels += [distinct.setdefault(label, label)
                       for label in itertools.compress(block_labels, keep)]
        report.rows_read += first
    report.rows_retained = len(labels)
    report.label_histogram = dict(Counter(labels))
    report.empty_input = report.rows_read == 0
    assert report.rows_retained + report.rows_dropped == report.rows_read
    return (np.concatenate(blocks), labels), report

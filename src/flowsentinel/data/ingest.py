"""CSV ingestion: parse flow-record files, clean bad rows, count the damage."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from ..errors import EmptyInputError, MissingColumnError
from . import schema


@dataclass
class FlowRecord:
    features: dict  # feature name -> finite float
    label: str


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


def load_csv(paths, feature_columns=schema.FEATURE_COLUMNS, label_column=schema.LABEL_COLUMN):
    """Parse flow CSVs into FlowRecords plus an ingest report.

    Columns are matched by header name, so column order never matters.
    Rows with an unparseable numeric, NaN, +/-Inf, or an empty label are
    dropped and counted by reason. Files are read in the given order and
    rows keep file order, so downstream seeding is reproducible.
    """
    paths = list(paths)
    if not paths:
        raise EmptyInputError("no input files")
    records = []
    report = IngestReport()
    for path in paths:
        report.files.append(str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for column in list(feature_columns) + [label_column]:
                if column not in header:
                    raise MissingColumnError(column, str(path))
            for row in reader:
                report.rows_read += 1
                label = (row.get(label_column) or "").strip()
                if not label:
                    report.drop("empty_label")
                    continue
                features = {}
                reason = None
                for column in feature_columns:
                    value, reason = parse_value(row[column])
                    if reason is not None:
                        break
                    features[column] = value
                if reason is not None:
                    report.drop(reason)
                    continue
                records.append(FlowRecord(features=features, label=label))
                report.rows_retained += 1
                report.label_histogram[label] = report.label_histogram.get(label, 0) + 1
    report.empty_input = report.rows_read == 0
    assert report.rows_retained + report.rows_dropped == report.rows_read
    return records, report

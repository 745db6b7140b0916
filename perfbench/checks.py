"""Output checks for the benchmark's CLI operations.

Each check reads the files an operation wrote and returns a list of
problems; an empty list means the output is correct. The checks read the
artefacts directly (JSON, CSV and the FSDS header) rather than through the
program's own readers, so a defect in those readers cannot hide itself.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

# The FSDS header: magic (4 bytes), version (1 byte), rows and columns (uint64 each).
_FSDS_HEADER = struct.Struct("<4sBQQ")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def expected_subsample(class_counts: dict, fraction: float) -> dict:
    """Rows per class that ingest keeps: round-half-up, at least one per class."""
    if fraction >= 1.0:
        return dict(class_counts)
    return {c: max(1, round_half_up(fraction * n)) for c, n in class_counts.items() if n}


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: unreadable ({exc})"


def check_ingest(out: Path, rows_read: int, injected: dict, class_counts: dict | None,
                 fraction: float) -> list:
    """ingest_report.json counts every injected bad row under its reason, and
    the cache holds exactly the per-class subsample of the retained rows."""
    report, err = _read_json(out / "ingest_report.json")
    if err:
        return [err]
    problems = []
    if report.get("rows_read") != rows_read:
        problems.append(f"ingest_report rows_read {report.get('rows_read')} != {rows_read}")
    dropped = {k: v for k, v in report.get("dropped_by_reason", {}).items() if v}
    want = {k: v for k, v in injected.items() if v}
    if dropped != want:
        problems.append(f"ingest_report dropped_by_reason {dropped} != injected {want}")
    retained = rows_read - sum(want.values())
    if report.get("rows_retained") != retained:
        problems.append(f"ingest_report rows_retained {report.get('rows_retained')} != {retained}")

    if class_counts is None:
        expected_rows, expected_hist = (retained if fraction >= 1.0 else None), None
    else:
        expected_hist = expected_subsample(class_counts, fraction)
        expected_rows = sum(expected_hist.values())
    try:
        with open(out / "dataset.fsds", "rb") as fh:
            magic, _, cache_rows, _ = _FSDS_HEADER.unpack(fh.read(_FSDS_HEADER.size))
    except (OSError, struct.error) as exc:
        return problems + [f"dataset.fsds: unreadable header ({exc})"]
    if magic != b"FSDS":
        problems.append("dataset.fsds: bad magic")
    if expected_rows is not None and cache_rows != expected_rows:
        problems.append(f"dataset.fsds has {cache_rows} rows, expected {expected_rows}")
    if expected_hist is not None:
        meta, err = _read_json(out / "dataset.fsds.meta.json")
        if err:
            problems.append(err)
        elif meta.get("class_histogram") != expected_hist:
            problems.append("dataset.fsds.meta.json class_histogram != per-class subsample counts")
    return problems


def check_features(out: Path, expected: list | None) -> list:
    """features.txt lists the selected features (the canonical list when given)."""
    path = out / "features.txt"
    try:
        names = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    except OSError as exc:
        return [f"features.txt: unreadable ({exc})"]
    if expected is not None and names != list(expected):
        return ["features.txt differs from the canonical feature list"]
    if len(names) != 20 or len(set(names)) != 20:
        return [f"features.txt lists {len(names)} features, expected 20 distinct"]
    return []


def check_importance(out: Path, all_features: list, canonical: list) -> list:
    """importance.csv ranks every feature once, with finite non-negative
    importances summing to one, and most canonical features rank in its top 20."""
    try:
        with open(out / "importance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ranked = [r["feature"] for r in rows]
        values = [float(r["importance"]) for r in rows]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"importance.csv: unreadable ({exc})"]
    problems = []
    if sorted(ranked) != sorted(all_features):
        problems.append(f"importance.csv ranks {len(ranked)} features, expected all {len(all_features)} once")
    if not all(math.isfinite(v) and v >= 0.0 for v in values) or abs(sum(values) - 1.0) > 1e-6:
        problems.append("importance.csv importances are not finite, non-negative and summing to 1")
    if values != sorted(values, reverse=True):
        problems.append("importance.csv is not in descending order")
    found = len(set(ranked[:20]) & set(canonical))
    if found <= len(canonical) // 2:
        problems.append(f"only {found} of {len(canonical)} canonical features rank in the top 20")
    return problems


def read_manifest(out: Path):
    return _read_json(out / "manifest.json")


def check_train(out: Path, accuracy_floor: float) -> list:
    """train wrote a model and a manifest whose test accuracy meets the floor."""
    manifest, err = read_manifest(out)
    if err:
        return [err]
    problems = []
    if not (out / "model.fsnn").is_file():
        problems.append("model.fsnn missing")
    accuracy = manifest.get("test_metrics", {}).get("accuracy")
    if not isinstance(accuracy, (int, float)) or not accuracy >= accuracy_floor:
        problems.append(f"test accuracy {accuracy} below the floor {accuracy_floor}")
    return problems


def check_evaluate(out: Path) -> list:
    """evaluate's accuracy equals the accuracy train reported on the same split."""
    metrics, err = _read_json(out / "metrics.json")
    manifest, err2 = read_manifest(out)
    if err or err2:
        return [e for e in (err, err2) if e]
    got = metrics.get("accuracy")
    want = manifest.get("test_metrics", {}).get("accuracy")
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)) or abs(got - want) > 1e-12:
        return [f"metrics.json accuracy {got} != manifest test accuracy {want}"]
    return []


def check_predictions(out: Path, input_rows: int, classes: list) -> list:
    """predictions.csv has one row per input row, in order, naming only the
    model's classes, with finite confidences in (0, 1]."""
    known = set(classes)
    problems = []
    count = 0
    try:
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["row_id", "predicted_class", "confidence"]:
                return ["predictions.csv header is wrong"]
            for row in reader:
                if len(row) != 3 or row[0] != str(count):
                    return [f"predictions.csv row {count} is malformed: {row}"]
                if row[1] not in known:
                    problems.append(f"predictions.csv row {count} names unknown class {row[1]!r}")
                conf = float(row[2])
                if not (math.isfinite(conf) and 0.0 < conf <= 1.0):
                    problems.append(f"predictions.csv row {count} confidence {row[2]} outside (0, 1]")
                count += 1
                if len(problems) >= 5:
                    return problems
    except (OSError, ValueError) as exc:
        return [f"predictions.csv: unreadable ({exc})"]
    if count != input_rows:
        problems.append(f"predictions.csv has {count} rows, expected {input_rows}")
    return problems

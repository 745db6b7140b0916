"""Self-test of the benchmark's output checks.

Runs small versions of the workloads' operations, confirms that every
check passes on the real outputs, then damages one output at a time and
confirms that the check guarding it reports the damage, so that no check
is vacuous. Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every damaged output was caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench" / "selftest"
SEED = 1


@contextlib.contextmanager
def damaged(path: Path, edit):
    """Temporarily replace ``path``'s bytes with ``edit(bytes)``."""
    original = path.read_bytes()
    path.write_bytes(edit(original))
    try:
        yield
    finally:
        path.write_bytes(original)


def json_edit(change):
    def edit(raw: bytes) -> bytes:
        doc = json.loads(raw)
        change(doc)
        return json.dumps(doc).encode()
    return edit


def lines_edit(change):
    def edit(raw: bytes) -> bytes:
        return "".join(change(raw.decode().splitlines(keepends=True))).encode()
    return edit


def csv_field_edit(row: int, column: int, value: str):
    """Set one field of a CSV line (row 0 is the header)."""
    def change(lines):
        cells = lines[row].rstrip("\r\n").split(",")
        cells[column] = value
        lines[row] = ",".join(cells) + "\n"
        return lines
    return lines_edit(change)


def bump_cache_rows(raw: bytes) -> bytes:
    (rows,) = struct.unpack_from("<Q", raw, 5)
    return raw[:5] + struct.pack("<Q", rows + 1) + raw[13:]


def demote_canonical(canonical):
    """Rename the ranked features so that no canonical one stays in the top 20."""
    def change(lines):
        names = [ln.split(",", 1)[0] for ln in lines[1:]]
        order = [n for n in names if n not in canonical] + [n for n in names if n in canonical]
        return [lines[0]] + [f"{name},{ln.split(',', 1)[1]}" for name, ln in zip(order, lines[1:])]
    return lines_edit(change)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from ops import ChildRunner, Op

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = ChildRunner(SRC, WORK)
    small_train = dataclasses.replace(workloads.WORKLOADS["cnn-train"],
                                      cache_rows=5000, new_rows=500)
    small_rank = dataclasses.replace(workloads.WORKLOADS["ingest-rank-predict"],
                                     rows=6000, model_rows=5000)
    ops = {}
    for workload in (small_train, small_rank):
        work = WORK / workload.name
        work.mkdir()
        state = workload.setup(runner, work, SEED)
        for op in workload.timed_ops(work, SEED, state):
            runner.run(op, "timed")
            ops[(workload.name, op.command)] = op
    failures = [p for r in runner.results for p in r.problems]
    if failures:
        print("checks fail on intact outputs: " + "; ".join(failures))
        return 1

    train_dir = WORK / "cnn-train" / "data"
    rank_dir = WORK / "ingest-rank-predict" / "rank"
    canonical_select = workloads.select_op(train_dir, SEED, recompute=False)
    train, evaluate, predict = (ops[("cnn-train", c)] for c in ("train", "evaluate", "predict"))
    ingest, select = ops[("ingest-rank-predict", "ingest")], ops[("ingest-rank-predict", "select")]

    def drop_nan(doc):
        doc["dropped_by_reason"]["nan"] += 1

    def drop_one_class(doc):
        name = sorted(doc["class_histogram"])[0]
        doc["class_histogram"][name] += 1

    cases = [
        ("ingest drop count off by one", ingest, rank_dir / "ingest_report.json",
         json_edit(drop_nan)),
        ("cache row count off by one", ingest, rank_dir / "dataset.fsds", bump_cache_rows),
        ("cache class histogram off by one", ingest, rank_dir / "dataset.fsds.meta.json",
         json_edit(drop_one_class)),
        ("canonical features.txt reordered", canonical_select, train_dir / "features.txt",
         lines_edit(lambda lines: lines[::-1])),
        ("importance.csv missing a feature", select, rank_dir / "importance.csv",
         lines_edit(lambda lines: lines[:-1])),
        ("importance.csv with no canonical feature in the top 20", select,
         rank_dir / "importance.csv", demote_canonical(workloads.CANONICAL)),
        ("test accuracy below the floor", train, train_dir / "manifest.json",
         json_edit(lambda d: d["test_metrics"].update(accuracy=0.01))),
        ("evaluate accuracy differs from train", evaluate, train_dir / "metrics.json",
         json_edit(lambda d: d.update(accuracy=d["accuracy"] - 1e-3))),
        ("predictions.csv truncated", predict, train_dir / "predictions.csv",
         lines_edit(lambda lines: lines[:-1])),
        ("predictions.csv names an unknown class", predict, train_dir / "predictions.csv",
         csv_field_edit(1, 1, "NotAClass")),
        ("predictions.csv confidence NaN", predict, train_dir / "predictions.csv",
         csv_field_edit(1, 2, "nan")),
        ("predictions.csv confidence 0", predict, train_dir / "predictions.csv",
         csv_field_edit(2, 2, "0.000000")),
        ("predictions.csv confidence above 1", predict, train_dir / "predictions.csv",
         csv_field_edit(3, 2, "1.5")),
    ]
    missed = []
    for label, op, path, edit in cases:
        with damaged(path, edit):
            problems = op.check()
        print(f"{'caught' if problems else 'MISSED'}: {label}" + (f" -> {problems[0]}" if problems else ""))
        if not problems:
            missed.append(label)

    # A non-zero exit must fail the op whatever its outputs hold.
    missing_model = Op("predict", ["--model", WORK / "absent.fsnn", "--input", rank_dir / "x.csv",
                                   "--out", rank_dir], outputs=[], check=lambda: [])
    result = runner.run(missing_model, "timed")
    print(f"{'caught' if not result.ok else 'MISSED'}: op exits non-zero (exit {result.exit_code})")
    if result.ok:
        missed.append("non-zero exit")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(cases) + 1 - len(missed)} of {len(cases) + 1} damaged outputs caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

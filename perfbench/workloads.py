"""The benchmark's workloads: seeded inputs, set-up, and the timed CLI operations.

Every input is generated from the workload seed with the program's public
fixture generator (``write_fixture_csv``); the program itself only ever sees
the generated files. All workloads run in multi mode (34 classes) at the
CLI's default thread settings.

* ``cnn-train`` times ``train --arch cnn`` at the default batch of 256, then
  ``evaluate`` and ``predict``: the conv, pool and dense kernels do most of
  the work, at the user-default batch where cost grows with volume.
* ``lstm-train`` times ``train --arch lstm --batch-size 32``, ``evaluate``
  and ``predict``: the recurrent step loop, sigmoid/tanh and the dropout-mask
  RNG do most of the work, at a small batch where per-call overhead matters;
  ``predict`` runs the LSTM forward on one full-size batch.
* ``ingest-rank-predict`` times ``ingest --subsample`` on a CSV with seeded
  malformed rows, ``select --recompute-importance`` and a bulk CNN
  ``predict``: CSV parsing, label mapping, subsampling, cache writes, the
  random forest and inference, with no backward pass.

Sizes keep train, predict, ingest and the forest at seconds rather than
process start-up (~0.2 s), and every process under ~1 GB of RSS.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
from ops import Op

from flowsentinel.data import schema, write_fixture_csv
from flowsentinel.features import canonical_top20

# Offsets that give the "new flows" and the small-model fixtures seeds of
# their own, distinct from the main fixture's for every workload seed.
NEW_FLOWS_SEED_OFFSET = 1_000_003
MODEL_FLOWS_SEED_OFFSET = 2_000_003

DROP_REASONS = ("non_numeric", "nan", "inf", "empty_label")
_BAD_CELL = {"non_numeric": "n/a", "nan": "nan", "inf": "inf"}

CANONICAL = canonical_top20()
FEATURES = list(schema.FEATURE_COLUMNS)


def _manifest_value(out: Path, *keys):
    value, err = checks.read_manifest(out)
    if err:
        raise ValueError(err)
    for key in keys:
        value = value[key]
    return value


def ingest_op(data: Path, out: Path, seed: int, rows: int, injected: dict | None = None,
              class_counts: dict | None = None, subsample: float = 1.0) -> Op:
    args = ["--data", data, "--mode", "multi", "--seed", seed, "--out", out]
    if subsample < 1.0:
        args += ["--subsample", subsample]
    return Op(
        "ingest", args,
        outputs=[out / "dataset.fsds", out / "dataset.fsds.meta.json", out / "ingest_report.json"],
        check=lambda: checks.check_ingest(out, rows, injected or {}, class_counts, subsample),
        rows=lambda: rows,
    )


def select_op(out: Path, seed: int, recompute: bool) -> Op:
    if recompute:
        return Op(
            "select", ["--recompute-importance", "--seed", seed, "--out", out],
            outputs=[out / "features.txt", out / "importance.csv"],
            check=lambda: (checks.check_importance(out, FEATURES, CANONICAL)
                           + checks.check_features(out, None)),
        )
    return Op("select", ["--seed", seed, "--out", out], outputs=[out / "features.txt"],
              check=lambda: checks.check_features(out, CANONICAL))


def train_op(out: Path, seed: int, arch: str, epochs: int, extra: tuple,
             accuracy_floor: float) -> Op:
    """``rows`` counts the outer-split training rows once per epoch."""
    return Op(
        "train", ["--arch", arch, "--epochs", epochs, *extra, "--seed", seed, "--out", out],
        outputs=[out / "model.fsnn", out / "manifest.json", out / "history.csv"],
        check=lambda: checks.check_train(out, accuracy_floor),
        rows=lambda: epochs * _manifest_value(out, "train_rows"),
        observe=lambda: {"test_accuracy": _manifest_value(out, "test_metrics", "accuracy")},
    )


def evaluate_op(out: Path, seed: int) -> Op:
    return Op("evaluate", ["--model", out / "model.fsnn", "--seed", seed, "--out", out],
              outputs=[out / "metrics.json", out / "metrics.txt"],
              check=lambda: checks.check_evaluate(out))


def predict_op(model_dir: Path, out: Path, data: Path, rows: int, seed: int) -> Op:
    return Op(
        "predict",
        ["--model", model_dir / "model.fsnn", "--input", data, "--seed", seed, "--out", out],
        outputs=[out / "predictions.csv"],
        check=lambda: checks.check_predictions(out, rows, _manifest_value(model_dir, "classes")),
        rows=lambda: rows,
    )


@dataclass(frozen=True)
class TrainWorkload:
    """Set-up: fixture CSV -> ingest -> canonical select, plus a "new flows"
    CSV from another seed. Timed: train -> evaluate -> predict(new flows)."""

    name: str
    why: str
    arch: str
    cache_rows: int
    new_rows: int
    epochs: int
    train_flags: tuple
    accuracy_floor: float

    def setup(self, runner, work: Path, seed: int) -> dict:
        write_fixture_csv(work / "flows.csv", rows=self.cache_rows, seed=seed)
        write_fixture_csv(work / "new_flows.csv", rows=self.new_rows,
                          seed=seed + NEW_FLOWS_SEED_OFFSET)
        for op in self.setup_ops(work, work, seed):
            runner.run(op, "setup")
        return {}

    def setup_ops(self, work: Path, out: Path, seed: int) -> list:
        """The set-up's CLI operations on the inputs in ``work``, writing to ``out``."""
        data = out / "data"
        return [ingest_op(work / "flows.csv", data, seed, self.cache_rows),
                select_op(data, seed, recompute=False)]

    def timed_ops(self, work: Path, seed: int, state: dict) -> list:
        data = work / "data"
        return [
            train_op(data, seed, self.arch, self.epochs, self.train_flags, self.accuracy_floor),
            evaluate_op(data, seed),
            predict_op(data, data, work / "new_flows.csv", self.new_rows, seed),
        ]


def inject_malformed(clean: Path, dirty: Path, share: float, seed: int):
    """Copy ``clean`` to ``dirty`` with ~``share`` of the rows damaged, spread
    evenly over ingest's four drop reasons (one damaged cell per row).

    Returns (rows injected per reason, class counts of the undamaged rows).
    """
    lines = clean.read_text(encoding="utf-8").splitlines()
    header, body = lines[0], lines[1:]
    rng = random.Random(seed)
    picked = rng.sample(range(len(body)), max(len(DROP_REASONS), round(share * len(body))))
    injected = Counter()
    for j, row in enumerate(picked):
        reason = DROP_REASONS[j % len(DROP_REASONS)]
        cells = body[row].split(",")
        if reason == "empty_label":
            cells[-1] = ""
        else:
            cells[rng.randrange(len(cells) - 1)] = _BAD_CELL[reason]
        body[row] = ",".join(cells)
        injected[reason] += 1
    damaged = set(picked)
    labels = Counter(line.rsplit(",", 1)[1] for i, line in enumerate(body) if i not in damaged)
    dirty.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
    return dict(injected), dict(labels)


@dataclass(frozen=True)
class IngestRankWorkload:
    """Set-up: a large fixture CSV, a copy with seeded malformed rows, and a
    small CNN trained from a separate small cache. Timed: ingest --subsample
    (malformed CSV) -> select --recompute-importance -> predict (clean CSV)."""

    name: str
    why: str
    rows: int
    malformed_share: float
    subsample: float
    model_rows: int
    model_epochs: int
    model_flags: tuple
    accuracy_floor: float

    def setup(self, runner, work: Path, seed: int) -> dict:
        clean, dirty = work / "flows_clean.csv", work / "flows_dirty.csv"
        write_fixture_csv(clean, rows=self.rows, seed=seed)
        injected, class_counts = inject_malformed(clean, dirty, self.malformed_share, seed)
        write_fixture_csv(work / "model_flows.csv", rows=self.model_rows,
                          seed=seed + MODEL_FLOWS_SEED_OFFSET)
        for op in self.setup_ops(work, work, seed):
            runner.run(op, "setup")
        return {"injected": injected, "class_counts": class_counts}

    def setup_ops(self, work: Path, out: Path, seed: int) -> list:
        """The set-up's CLI operations on the inputs in ``work``, writing to ``out``."""
        model_dir = out / "model"
        return [
            ingest_op(work / "model_flows.csv", model_dir, seed, self.model_rows),
            select_op(model_dir, seed, recompute=False),
            train_op(model_dir, seed, "cnn", self.model_epochs, self.model_flags,
                     self.accuracy_floor),
        ]

    def timed_ops(self, work: Path, seed: int, state: dict) -> list:
        rank = work / "rank"
        return [
            ingest_op(work / "flows_dirty.csv", rank, seed, self.rows, state["injected"],
                      state["class_counts"], self.subsample),
            select_op(rank, seed, recompute=True),
            predict_op(work / "model", rank, work / "flows_clean.csv", self.rows, seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="cnn-train",
            why="CNN train at the default batch of 256, then evaluate and predict: conv, pool and "
                "dense kernels do most of the work; no LSTM, dropout RNG, forest or CSV ingest",
            arch="cnn", cache_rows=20000, new_rows=20000, epochs=2, train_flags=("--lr", 0.003),
            accuracy_floor=0.5,
        ),
        TrainWorkload(
            name="lstm-train",
            why="LSTM train at batch 32, then evaluate and predict: the recurrent step loop, "
                "sigmoid/tanh and dropout-mask RNG dominate where per-call overhead matters",
            arch="lstm", cache_rows=9000, new_rows=4000, epochs=2,
            train_flags=("--batch-size", 32, "--lr", 0.003), accuracy_floor=0.5,
        ),
        IngestRankWorkload(
            name="ingest-rank-predict",
            why="ingest with malformed rows and subsampling, forest feature ranking and bulk CNN "
                "predict: CSV parsing, cache writes, the forest and inference; no backward pass",
            rows=30000, malformed_share=0.01, subsample=0.1, model_rows=5000, model_epochs=6,
            model_flags=("--lr", 0.003), accuracy_floor=0.5,
        ),
    )
}

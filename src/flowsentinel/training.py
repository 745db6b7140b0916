"""Deterministic training loop and the evaluation suite.

Training carves a stratified validation set out of the training rows, then
runs seeded shuffle -> mini-batch forward/loss/backward/Adam for a fixed
number of epochs. Everything stochastic (validation carve-out, epoch
shuffles, dropout masks) draws from substreams spawned off the model's seed,
so the same (seed, data, epochs, batch size, learning rate, BLAS thread
count) reproduces the run bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data.labels import ClassificationMode
from .data.splits import stratified_split
from .errors import MismatchError, MissingInputError, NumericError, ShapeMismatchError
from .models import Model
from .nn import Adam
from .nn.losses import (
    binary_cross_entropy,
    binary_logit_grad,
    sparse_categorical_cross_entropy,
    sparse_categorical_logit_grad,
)

# The learning rate is architecture-specific when not set explicitly: the
# LSTM trains at 1e-4, the CNN at the common Adam default.
DEFAULT_LEARNING_RATES = {"cnn": 0.001, "lstm": 0.0001}

# The share of the training rows carved out, stratified, for validation.
VALIDATION_FRACTION = 0.1


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # EpochRecord per epoch

    def final(self) -> EpochRecord:
        return self.epochs[-1]


def _check_mode(model: Model, y: np.ndarray) -> None:
    n_classes = len(model.mode.classes)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise MismatchError(
            f"labels span [{y.min()}, {y.max()}] but model mode "
            f"{model.mode.value!r} expects [0, {n_classes})"
        )


def _batch_loss(model: Model, probs: np.ndarray, y: np.ndarray) -> float:
    if model.mode is ClassificationMode.BINARY:
        return binary_cross_entropy(probs[:, 0], y)
    return sparse_categorical_cross_entropy(probs, y)


def _logit_grad(model: Model, probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    if model.mode is ClassificationMode.BINARY:
        return binary_logit_grad(probs, y)
    return sparse_categorical_logit_grad(probs, y)


def _batched_eval(model: Model, X: np.ndarray, y: np.ndarray):
    """(mean loss, accuracy) without touching training state."""
    total_loss = 0.0
    correct = 0
    for start, probs in model.batches(X):
        yb = y[start:start + len(probs)]
        total_loss += _batch_loss(model, probs, yb) * len(probs)
        correct += int((model.decide(probs)[0] == yb).sum())
    return total_loss / X.shape[0], correct / X.shape[0]


def train(model: Model, X: np.ndarray, y: np.ndarray, *, epochs: int, batch_size: int,
          learning_rate: float):
    """Train in place; returns the TrainHistory.

    ``X`` is the normalized training matrix (the 80% side of the outer
    split); a further ``VALIDATION_FRACTION`` is carved out of it here,
    stratified, and never trained on. Dropout masks come from the model's
    own stream (see ``models.build``), so a second call on the same model
    continues that stream rather than restarting it.
    """
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise MissingInputError("no training rows")
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatchError("feature matrix and label vector row counts disagree")
    _check_mode(model, y)

    carve = stratified_split(y, 1.0 - VALIDATION_FRACTION, seed=model.rng_seed)
    train_idx, val_idx = carve.train, carve.test
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_val, y_val = X[val_idx], y[val_idx]

    from .rng import Rng

    root = Rng(model.rng_seed)
    optimizer = Adam(model.parameters(), lr=learning_rate)

    history = TrainHistory()
    n = X_tr.shape[0]
    for epoch in range(epochs):
        started = time.perf_counter()
        order = root.spawn(f"epoch-{epoch}").permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, batch_size):
            rows = order[start:start + batch_size]
            xb, yb = X_tr[rows], y_tr[rows]
            optimizer.zero_grad()
            probs = model.forward(xb, training=True)
            loss = _batch_loss(model, probs, yb)
            if not np.isfinite(loss):
                raise NumericError(
                    f"loss became non-finite in epoch {epoch + 1}; "
                    f"last good epoch: {epoch}"
                )
            model.backward_from_logits(_logit_grad(model, probs, yb))
            optimizer.step()
            epoch_loss += loss * xb.shape[0]
            pred, _ = model.decide(probs)
            epoch_correct += int((pred == yb).sum())
        val_loss, val_acc = _batched_eval(model, X_val, y_val)
        history.epochs.append(
            EpochRecord(
                epoch=epoch + 1,
                train_loss=epoch_loss / n,
                train_acc=epoch_correct / n,
                val_loss=val_loss,
                val_acc=val_acc,
                seconds=time.perf_counter() - started,
            )
        )
    return history


def metrics_from_confusion(confusion: np.ndarray, class_names) -> dict:
    """The metrics.json document of a [C, C] confusion matrix (rows = truth).

    Precision, recall and F1 are reported per class, as their plain (macro)
    mean and as their support-weighted mean. Undefined ratios (zero
    denominators) are reported as 0 and the class is flagged, never NaN.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    c = confusion.shape[0]
    if confusion.shape != (c, c):
        raise ValueError("confusion matrix must be square")
    total = confusion.sum()
    if total == 0:
        raise MissingInputError("empty confusion matrix")
    tp = np.diag(confusion).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    actual = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros(c), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(c), where=actual > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(c), where=pr > 0)
    scores = {"precision": precision, "recall": recall, "f1": f1}
    weights = actual / total
    return {
        "accuracy": float(tp.sum() / total),
        "confusion": confusion.tolist(),
        "classes": list(class_names),
        "per_class": {
            name: {**{key: float(value[i]) for key, value in scores.items()},
                   "support": int(actual[i])}
            for i, name in enumerate(class_names)
        },
        "macro": {key: float(value.mean()) for key, value in scores.items()},
        "weighted": {key: float((value * weights).sum()) for key, value in scores.items()},
        "undefined_precision_classes": [class_names[i] for i in range(c) if predicted[i] == 0],
        "undefined_recall_classes": [class_names[i] for i in range(c) if actual[i] == 0],
    }


def metrics_text(report: dict) -> str:
    """The table of a :func:`metrics_from_confusion` document that ``evaluate``
    prints and writes to metrics.txt."""
    width = max([len(str(name)) for name in report["classes"]] + [8])
    samples = sum(map(sum, report["confusion"]))
    rows = [(name, report["per_class"][name]) for name in report["classes"]]
    rows += [(key, {**report[key], "support": samples}) for key in ("macro", "weighted")]
    return "\n".join(
        [f"accuracy: {report['accuracy']:.4f}   samples: {samples}",
         f"{'class'.ljust(width)}  precision  recall  f1      support"]
        + [f"{str(name).ljust(width)}  {scores['precision']:.4f}     "
           f"{scores['recall']:.4f}  {scores['f1']:.4f}  {scores['support']}"
           for name, scores in rows]
    )


def evaluate(model: Model, X_test: np.ndarray, y_test: np.ndarray) -> dict:
    """The metrics.json document (see :func:`metrics_from_confusion`) of
    the model's predictions over held-out rows, under its class names."""
    X_test = np.asarray(X_test, dtype=np.float32)
    y_test = np.asarray(y_test, dtype=np.int64)
    if X_test.shape[0] == 0:
        raise MissingInputError("empty test set")
    _check_mode(model, y_test)
    n_classes = len(model.class_names)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_test, model.predict(X_test)), 1)
    return metrics_from_confusion(confusion, model.class_names)


def export_history(history: TrainHistory, path) -> None:
    """History CSV: epoch,train_loss,train_acc,val_loss,val_acc,seconds."""
    if not history.epochs:
        raise MissingInputError("history has no epochs")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,train_acc,val_loss,val_acc,seconds\n")
        for r in history.epochs:
            fh.write(
                f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},"
                f"{r.val_loss:.6f},{r.val_acc:.6f},{r.seconds:.6f}\n"
            )

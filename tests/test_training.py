"""Training loop determinism, metrics math, history export."""

import numpy as np
import pytest

from flowsentinel import models
from flowsentinel.data import ClassificationMode
from flowsentinel.errors import MismatchError, MissingInputError, ShapeMismatchError
from flowsentinel.models import Model, build
from flowsentinel.training import (
    DEFAULT_LEARNING_RATES,
    _batched_eval,
    evaluate,
    export_history,
    metrics_from_confusion,
    metrics_text,
    train,
)

from conftest import FEATURES


def separable_binary(n=64, seed=0):
    """Two well-separated level patterns over 20 features."""
    rng = np.random.default_rng(seed)
    y = (np.arange(n) % 2).astype(np.int64)
    base = np.where(y[:, None] == 0, 0.2, 0.8)
    X = np.clip(base + rng.normal(0, 0.03, size=(n, 20)), 0, 1).astype(np.float32)
    return X, y


class TestTrain:
    def test_cnn_overfits_separable_binary(self):
        X, y = separable_binary()
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        history = train(model, X, y, epochs=30, batch_size=16,
                        learning_rate=DEFAULT_LEARNING_RATES["cnn"])
        assert history.final().train_acc == 1.0
        assert history.final().train_loss < history.epochs[0].train_loss

    def test_history_row_count_and_ranges(self):
        X, y = separable_binary()
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=1)
        history = train(model, X, y, epochs=5, batch_size=16,
                        learning_rate=DEFAULT_LEARNING_RATES["cnn"])
        assert len(history.epochs) == 5
        for r in history.epochs:
            assert 0.0 <= r.train_acc <= 1.0
            assert 0.0 <= r.val_acc <= 1.0
            assert r.seconds >= 0.0

    def test_full_run_determinism(self):
        X, y = separable_binary(n=80, seed=3)
        runs = []
        for _ in range(2):
            model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=9)
            history = train(model, X, y, epochs=4, batch_size=16,
                            learning_rate=DEFAULT_LEARNING_RATES["cnn"])
            runs.append((history, [p.value.copy() for p in model.parameters()]))
        h1, params1 = runs[0]
        h2, params2 = runs[1]
        assert [(r.train_loss, r.val_loss) for r in h1.epochs] == [
            (r.train_loss, r.val_loss) for r in h2.epochs
        ]
        for a, b in zip(params1, params2):
            assert np.array_equal(a, b)

    def test_mode_mismatch_rejected(self):
        X, _ = separable_binary()
        y_multi = np.arange(64) % 9  # labels outside binary range
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        with pytest.raises(MismatchError):
            train(model, X, y_multi, epochs=1, batch_size=256,
                  learning_rate=DEFAULT_LEARNING_RATES["cnn"])

    def test_row_count_mismatch_is_a_shape_error(self):
        X, y = separable_binary()
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        with pytest.raises(ShapeMismatchError):
            train(model, X, y[:-1], epochs=1, batch_size=256,
                  learning_rate=DEFAULT_LEARNING_RATES["cnn"])

    def test_empty_training_set_rejected(self):
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        with pytest.raises(MissingInputError):
            train(model, np.zeros((0, 20)), np.zeros(0, dtype=int), epochs=1, batch_size=256,
                  learning_rate=DEFAULT_LEARNING_RATES["cnn"])

    def test_lstm_trains_and_improves(self):
        X, y = separable_binary(n=96, seed=4)
        model = build("lstm", ClassificationMode.BINARY, FEATURES, seed=2)
        # generous lr so the smoke test stays fast
        history = train(model, X, y, epochs=15, batch_size=16, learning_rate=0.01)
        assert history.final().train_loss < history.epochs[0].train_loss
        assert history.final().train_acc > 0.9


def per_class(report: dict, key: str) -> np.ndarray:
    """One score of every class of a metrics document, in class index order."""
    return np.array([report["per_class"][name][key] for name in report["classes"]])


class TestMetrics:
    def test_perfect_predictor(self):
        report = metrics_from_confusion(np.array([[50, 0], [0, 50]]), ["neg", "pos"])
        assert report["accuracy"] == 1.0
        assert np.all(per_class(report, "precision") == 1.0)
        assert np.all(per_class(report, "recall") == 1.0)
        assert np.all(per_class(report, "f1") == 1.0)

    def test_hand_computed_confusion(self):
        report = metrics_from_confusion(np.array([[40, 10], [5, 45]]), ["a", "b"])
        b = report["per_class"]["b"]
        assert report["accuracy"] == pytest.approx(0.85)
        assert b["precision"] == pytest.approx(45 / 55, abs=1e-4)
        assert b["recall"] == pytest.approx(0.9)
        assert b["f1"] == pytest.approx(2 * (45 / 55) * 0.9 / ((45 / 55) + 0.9), abs=1e-4)
        assert b["f1"] == pytest.approx(0.8571, abs=1e-4)
        assert per_class(report, "support").tolist() == [50, 50]

    def test_degenerate_class_flagged_not_nan(self):
        # class 1 never appears and is never predicted
        report = metrics_from_confusion(np.array([[30, 0], [0, 0]]), ["only", "ghost"])
        ghost = report["per_class"]["ghost"]
        assert report["accuracy"] == 1.0
        assert ghost["precision"] == 0.0 and ghost["recall"] == 0.0
        assert "ghost" in report["undefined_precision_classes"]
        assert "ghost" in report["undefined_recall_classes"]
        assert np.all(np.isfinite(per_class(report, "f1")))

    def test_macro_equals_per_class_when_identical(self):
        report = metrics_from_confusion(np.array([[40, 10], [10, 40]]), ["a", "b"])
        assert report["macro"]["f1"] == pytest.approx(report["per_class"]["a"]["f1"])
        assert report["macro"]["f1"] <= 1.0

    def test_confusion_total_equals_samples_all_regimes(self, np_rng):
        for mode, arch in ((ClassificationMode.BINARY, "cnn"),
                           (ClassificationMode.GROUPED, "cnn"),
                           (ClassificationMode.MULTI, "lstm")):
            model = build(arch, mode, FEATURES, seed=0)
            n_classes = len(mode.classes)
            X = np_rng.uniform(size=(50, 20)).astype(np.float32)
            y = np_rng.integers(0, n_classes, size=50)
            report = evaluate(model, X, y)
            assert np.sum(report["confusion"]) == 50
            assert np.shape(report["confusion"]) == (n_classes, n_classes)
            assert report["classes"] == list(mode.classes)

    def test_confusion_accuracy_matches_direct_comparison(self, np_rng):
        model = build("cnn", ClassificationMode.GROUPED, FEATURES, seed=1)
        X = np_rng.uniform(size=(64, 20)).astype(np.float32)
        y = np_rng.integers(0, 8, size=64)
        report = evaluate(model, X, y)
        direct = float((model.predict(X) == y).mean())
        assert report["accuracy"] == pytest.approx(direct)

    def test_empty_test_set_rejected(self):
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        with pytest.raises(MissingInputError):
            evaluate(model, np.zeros((0, 20)), np.zeros(0, dtype=int))

    def test_report_serializes(self):
        report = metrics_from_confusion(np.array([[40, 10], [5, 45]]), ["a", "b"])
        assert report["accuracy"] == pytest.approx(0.85)
        assert report["per_class"]["b"]["recall"] == pytest.approx(0.9)
        text = metrics_text(report)
        assert "accuracy: 0.8500" in text
        assert "macro" in text and "weighted" in text


@pytest.mark.parametrize("arch,mode", [("cnn", "multi"), ("lstm", "binary")])
def test_batch_boundaries_do_not_change_results(arch, mode, monkeypatch):
    model = build(arch, ClassificationMode(mode), FEATURES, seed=3)
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(20, 20)).astype(np.float32)
    y = rng.integers(0, len(model.mode.classes), size=20)
    if mode == "binary":  # centre the head's logit so that both classes occur
        p = np.median(model.forward(X)[:, 0])
        model.layers[-1].bias.value -= np.log(p / (1.0 - p))
    pred = model.predict(X)
    assert len(np.unique(pred)) > 1
    confusion = evaluate(model, X, y)["confusion"]
    loss, acc = _batched_eval(model, X, y)

    rows = []
    forward = Model.forward

    def counted(self, batch, training=False):
        rows.append(len(batch))
        return forward(self, batch, training)

    monkeypatch.setattr(Model, "forward", counted)
    monkeypatch.setattr(models, "INFERENCE_BATCH_ROWS", 7)
    assert np.array_equal(model.predict(X), pred)
    assert rows == [7, 7, 6]
    assert np.array_equal(evaluate(model, X, y)["confusion"], confusion)
    split_loss, split_acc = _batched_eval(model, X, y)
    assert split_acc == acc
    assert split_loss == pytest.approx(loss, abs=1e-6)
    assert rows == [7, 7, 6] * 3


class TestExportHistory:
    def test_csv_row_count_and_round_trip(self, tmp_path):
        X, y = separable_binary()
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        history = train(model, X, y, epochs=20, batch_size=16,
                        learning_rate=DEFAULT_LEARNING_RATES["cnn"])
        path = tmp_path / "history.csv"
        export_history(history, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 21
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
        cells = lines[1].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == pytest.approx(history.epochs[0].train_loss, abs=1e-6)
        assert float(cells[4]) == pytest.approx(history.epochs[0].val_acc, abs=1e-6)

    def test_deterministic_file_given_history(self, tmp_path):
        X, y = separable_binary()
        model = build("cnn", ClassificationMode.BINARY, FEATURES, seed=0)
        history = train(model, X, y, epochs=3, batch_size=16,
                        learning_rate=DEFAULT_LEARNING_RATES["cnn"])
        export_history(history, tmp_path / "a.csv")
        export_history(history, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_history_rejected(self, tmp_path):
        from flowsentinel.training import TrainHistory

        with pytest.raises(MissingInputError):
            export_history(TrainHistory(), tmp_path / "x.csv")

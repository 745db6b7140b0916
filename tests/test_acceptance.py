"""Acceptance suite: the exit criteria for this package, one test per
criterion, each printing a PASS/FAIL line (bypassing pytest capture so the
lines always appear).

Tolerances are fixed here, not calibrated later:
  - layer and loss gradients vs central differences (float64, h=1e-5): 1e-4
  - full CNN composite gradient: 1e-3
  - Adam vs scalar oracle after 10 steps: 1e-10
  - importance normalization: 1e-9
  - synthetic end-to-end: multi >= 0.90, binary >= 0.97 test accuracy
  - stratification: per-class train count within 1 row of the exact fraction

The optional CICIoT2023 reproduction (accuracies within +/-1.0 point of the
published table) only runs when FLOWSENTINEL_CICIOT_DIR points at the real
CSV corpus; it is hardware- and seed-sensitive and not a CI gate.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

from flowsentinel.data import (
    ClassificationMode,
    apply_normalizer,
    build_vocabulary,
    fit_normalizer,
    generate_fixture,
    read_cache,
    schema,
    stratified_split,
    subsample_indices,
    write_cache,
)
from flowsentinel.errors import SchemaError
from flowsentinel.features import (
    ForestConfig,
    canonical_top20,
    compute_importances,
    fit_forest,
    fit_tree,
)
from flowsentinel.models import build, load, save
from flowsentinel.nn import (
    LSTM,
    Adam,
    Conv1D,
    Dense,
    MaxPool1D,
    Parameter,
    binary_cross_entropy,
    binary_logit_grad,
    sigmoid,
    softmax,
    sparse_categorical_cross_entropy,
    sparse_categorical_logit_grad,
)
from flowsentinel.rng import Rng
from flowsentinel.training import (
    DEFAULT_LEARNING_RATES,
    evaluate,
    metrics_from_confusion,
    train,
)

from conftest import as_float64, central_difference, check_layer, max_rel_err

GRAD_TOL = 1e-4
COMPOSITE_TOL = 1e-3
ADAM_TOL = 1e-10
IMPORTANCE_TOL = 1e-9
MULTI_TARGET = 0.90
BINARY_TARGET = 0.97


def announce(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Gradient correctness
# ---------------------------------------------------------------------------


def test_gradient_correctness_layers():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for case in range(20):
        dense = as_float64(Dense(int(rng.integers(1, 9)), int(rng.integers(1, 7)), Rng(case)))
        x = rng.normal(size=(int(rng.integers(1, 5)), dense.in_features))
        worst = max(worst, check_layer(dense, x))
    for case in range(20):
        c_in, c_out, k = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        conv = as_float64(Conv1D(c_in, c_out, k, Rng(100 + case)))
        x = rng.normal(size=(int(rng.integers(1, 4)), c_in, k + int(rng.integers(0, 9))))
        worst = max(worst, check_layer(conv, x))
    # the exact stack shapes used by the classifier
    conv1 = as_float64(Conv1D(1, 32, 3, Rng(900)))
    worst = max(worst, check_layer(conv1, rng.normal(size=(1, 1, 20))))
    conv2 = as_float64(Conv1D(32, 64, 3, Rng(901)))
    worst = max(worst, check_layer(conv2, rng.normal(size=(1, 32, 9))))
    for case in range(20):
        pool = MaxPool1D(2)
        c = int(rng.integers(1, 4))
        length = int(rng.integers(2, 11))
        x = rng.permutation(c * length).astype(np.float64).reshape(1, c, length)
        worst = max(worst, check_layer(pool, x))
    for case in range(20):
        d, h = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        lstm = as_float64(LSTM(d, h, Rng(200 + case), return_sequences=bool(case % 2)))
        x = rng.normal(size=(int(rng.integers(1, 3)), int(rng.integers(1, 5)), d))
        worst = max(worst, check_layer(lstm, x))
    elapsed = time.perf_counter() - started
    announce(
        "gradients: dense/conv/pool/lstm vs finite differences",
        worst < GRAD_TOL,
        f"max rel err {worst:.2e} over 82 cases in {elapsed:.1f}s",
    )


def test_gradient_correctness_losses():
    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 9))
        z = rng.normal(size=(n, 1))
        y = (rng.uniform(size=n) > 0.5).astype(int)

        def bce():
            return binary_cross_entropy(sigmoid(z), y)

        grad = binary_logit_grad(sigmoid(z), y)
        worst = max(worst, max_rel_err(grad, central_difference(bce, z)))
    for case in range(20):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        z = rng.normal(size=(n, c))
        y = rng.integers(0, c, size=n)

        def sce():
            return sparse_categorical_cross_entropy(softmax(z, axis=-1), y)

        grad = sparse_categorical_logit_grad(softmax(z, axis=-1), y)
        worst = max(worst, max_rel_err(grad, central_difference(sce, z)))
    announce(
        "gradients: both losses vs finite differences",
        worst < GRAD_TOL,
        f"max rel err {worst:.2e} over 40 cases",
    )


def test_gradient_correctness_full_cnn_composite():
    model = as_float64(build("cnn", ClassificationMode.BINARY, canonical_top20(), seed=5))
    x = np.random.default_rng(3).uniform(0.05, 0.95, size=(1, 20))
    y = np.array([1])

    def loss_fn() -> float:
        probs = model.forward(x, training=False)
        return binary_cross_entropy(probs[:, 0], y)

    probs = model.forward(x, training=True)  # the CNN has no dropout
    model.backward_from_logits(binary_logit_grad(probs, y))
    params = model.parameters()
    worst = max(max_rel_err(p.grad, central_difference(loss_fn, p.value)) for p in params)
    announce(
        "gradients: full CNN classifier forward+loss",
        worst < COMPOSITE_TOL,
        f"max rel err {worst:.2e} across {len(params)} parameter tensors",
    )


# ---------------------------------------------------------------------------
# Shape pipeline and parameter counts
# ---------------------------------------------------------------------------


def test_shape_pipeline_and_parameter_counts():
    model = build("cnn", ClassificationMode.BINARY, canonical_top20(), seed=0)
    lengths = [20]
    for layer in model.layers:
        if isinstance(layer, Conv1D):
            lengths.append(layer.output_length(lengths[-1]))
        elif isinstance(layer, MaxPool1D):
            lengths.append(layer.output_length(lengths[-1]))
    chain_ok = lengths == [20, 18, 9, 7, 3]
    flatten_ok = model.layers[-1].in_features == 192
    cnn_count = model.parameter_count()
    lstm = build("lstm", ClassificationMode.BINARY, canonical_top20(), seed=0)
    lstm_count = lstm.parameter_count()
    counts_ok = cnn_count == 6529 and lstm_count == 49985
    announce(
        "shape pipeline 20->18->9->7->3->192 and parameter formulas",
        chain_ok and flatten_ok and counts_ok,
        f"chain {lengths}, cnn {cnn_count}, lstm {lstm_count}",
    )


# ---------------------------------------------------------------------------
# Optimizer oracle
# ---------------------------------------------------------------------------


def test_adam_matches_scalar_oracle():
    p = Parameter("w", np.array([1.0], dtype=np.float64))
    opt = Adam([p], lr=0.1)
    got = []
    for _ in range(10):
        opt.zero_grad()
        p.grad[...] = 2.0 * p.value
        opt.step()
        got.append(float(p.value[0]))

    w, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 11):
        g = 2.0 * w
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * (g * g)
        w = w - 0.1 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        expected.append(w)
    gap = max(abs(a - b) for a, b in zip(got, expected))
    announce("adam: 10 steps on scalar quadratic vs hand oracle", gap <= ADAM_TOL, f"max gap {gap:.1e}")


# ---------------------------------------------------------------------------
# Overfit smoke
# ---------------------------------------------------------------------------


def _separable64():
    rng = np.random.default_rng(0)
    y = (np.arange(64) % 2).astype(np.int64)
    base = np.where(y[:, None] == 0, 0.2, 0.8)
    X = np.clip(base + rng.normal(0, 0.03, size=(64, 20)), 0, 1).astype(np.float32)
    return X, y


@pytest.mark.parametrize("arch", ["cnn", "lstm"])
def test_overfit_smoke(arch):
    started = time.perf_counter()
    X, y = _separable64()
    model = build(arch, ClassificationMode.BINARY, canonical_top20(), seed=0)
    history = train(model, X, y, epochs=200, batch_size=8, learning_rate=0.01)
    accs = [r.train_acc for r in history.epochs]
    hit = next((i + 1 for i, a in enumerate(accs) if a == 1.0), None)
    loss_down = history.final().train_loss < history.epochs[0].train_loss
    announce(
        f"overfit smoke ({arch}): 100% train accuracy within 200 epochs",
        hit is not None and loss_down,
        f"reached at epoch {hit}, loss {history.epochs[0].train_loss:.4f} -> "
        f"{history.final().train_loss:.6f}, {time.perf_counter() - started:.0f}s",
    )


# ---------------------------------------------------------------------------
# Synthetic end-to-end
# ---------------------------------------------------------------------------


def _fixture_matrix():
    X_all, labels = generate_fixture(rows=5000, seed=0)
    names = list(schema.FEATURE_COLUMNS)
    cols = [names.index(f) for f in canonical_top20()]
    return X_all[:, cols], labels


def _end_to_end(arch: str, mode: ClassificationMode, batch_size: int) -> float:
    Xc, labels = _fixture_matrix()
    vocab = build_vocabulary(mode)
    y = np.array([vocab.raw_to_class[lab] for lab in labels])
    split = stratified_split(y, 0.8, seed=0)
    stats = fit_normalizer(Xc[split.train])
    X_train = apply_normalizer(Xc[split.train], stats)
    X_test = apply_normalizer(Xc[split.test], stats)
    model = build(arch, mode, canonical_top20(), seed=0)
    train(model, X_train, y[split.train], epochs=20, batch_size=batch_size,
          learning_rate=DEFAULT_LEARNING_RATES[arch])
    return evaluate(model, X_test, y[split.test], vocab.classes)["accuracy"]


@pytest.mark.parametrize(
    "arch,mode,batch_size,target",
    [
        ("cnn", ClassificationMode.MULTI, 32, MULTI_TARGET),
        ("cnn", ClassificationMode.BINARY, 32, BINARY_TARGET),
        ("lstm", ClassificationMode.MULTI, 8, MULTI_TARGET),
        ("lstm", ClassificationMode.BINARY, 8, BINARY_TARGET),
    ],
)
def test_synthetic_end_to_end(arch, mode, batch_size, target):
    started = time.perf_counter()
    accuracy = _end_to_end(arch, mode, batch_size)
    announce(
        f"end-to-end ({arch}/{mode.value}): 20-epoch test accuracy >= {target:.0%}",
        accuracy >= target,
        f"accuracy {accuracy:.4f} in {time.perf_counter() - started:.0f}s",
    )


# ---------------------------------------------------------------------------
# Optional: real-corpus reproduction (not a CI gate)
# ---------------------------------------------------------------------------

PUBLISHED_ACCURACY = {  # percent
    ("cnn", "binary"): 99.34,
    ("cnn", "grouped"): 99.02,
    ("cnn", "multi"): 98.62,
    ("lstm", "binary"): 99.42,
    ("lstm", "grouped"): 99.13,
    ("lstm", "multi"): 98.68,
}
HETIOT_BASELINE_ACCURACY = {"binary": 99.2, "grouped": 99.0, "multi": 98.55}  # comparison constants


@pytest.mark.skipif(
    "FLOWSENTINEL_CICIOT_DIR" not in os.environ,
    reason="real-corpus reproduction needs FLOWSENTINEL_CICIOT_DIR (external download); "
    "documented as hardware- and seed-sensitive, not a CI gate",
)
@pytest.mark.parametrize("arch", ["cnn", "lstm"])
@pytest.mark.parametrize("mode", ["binary", "grouped", "multi"])
def test_real_corpus_reproduction(arch, mode):
    from flowsentinel.data import load_csv, map_labels
    from pathlib import Path

    data_dir = Path(os.environ["FLOWSENTINEL_CICIOT_DIR"])
    (X, labels), _ = load_csv(sorted(data_dir.glob("*.csv")))
    vocab = build_vocabulary(ClassificationMode(mode))
    kept, y, _ = map_labels(labels, vocab)
    cols = [schema.FEATURE_COLUMNS.index(f) for f in canonical_top20()]
    X = X[np.ix_(kept, cols)].astype(np.float32)
    keep = subsample_indices(y, 0.10, Rng(0).spawn("subsample"))
    X, y = X[keep], y[keep]
    split = stratified_split(y, 0.8, seed=0)
    stats = fit_normalizer(X[split.train])
    model = build(arch, ClassificationMode(mode), canonical_top20(), seed=0)
    train(model, apply_normalizer(X[split.train], stats), y[split.train],
          epochs=20, batch_size=256, learning_rate=DEFAULT_LEARNING_RATES[arch])
    report = evaluate(model, apply_normalizer(X[split.test], stats), y[split.test],
                      vocab.classes)
    target = PUBLISHED_ACCURACY[(arch, mode)]
    announce(
        f"real corpus ({arch}/{mode}): accuracy within 1.0 point of {target}",
        abs(report["accuracy"] * 100.0 - target) <= 1.0,
        f"accuracy {report['accuracy'] * 100.0:.2f}%",
    )


# ---------------------------------------------------------------------------
# Split stratification
# ---------------------------------------------------------------------------


def test_split_stratification_100_distributions():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        sizes = rng.integers(2, 80, size=int(rng.integers(2, 12)))
        y = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        split = stratified_split(y, 0.8, seed=trial)
        for c, size in enumerate(sizes):
            worst = max(worst, abs(int((y[split.train] == c).sum()) - 0.8 * size))
    y = np.random.default_rng(5).integers(0, 6, size=3000)
    a = stratified_split(y, 0.8, seed=123)
    b = stratified_split(y, 0.8, seed=123)
    deterministic = (
        hash(a.train.tobytes()) == hash(b.train.tobytes())
        and hash(a.test.tobytes()) == hash(b.test.tobytes())
    )
    announce(
        "stratified split: per-class train count within 1 row, seed-deterministic",
        worst <= 1.0 and deterministic,
        f"worst deviation {worst:.2f} rows over 100 distributions",
    )


# ---------------------------------------------------------------------------
# Feature-importance sanity
# ---------------------------------------------------------------------------


def test_feature_importance_sanity():
    sums_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(200, 6))
        y = X[:, 1] * 2.0 + X[:, 4]
        report = compute_importances(
            fit_forest(X, y, ForestConfig(n_trees=8, max_depth=6, min_samples_leaf=5, seed=seed)),
            [f"f{i}" for i in range(6)],
        )
        sums_ok &= abs(sum(v for _, v in report.ranking) - 1.0) <= IMPORTANCE_TOL

    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(150, 4))
        y = (X[:, 0] > 0.5).astype(float)
        config = ForestConfig(n_trees=10, max_depth=6, min_samples_leaf=5,
                              features_per_split=2, bootstrap=True, seed=seed)
        report = compute_importances(fit_forest(X, y, config), ["signal", "n1", "n2", "n3"])
        wins += report.ranking[0][0] == "signal"

    brute_ok = True
    from test_feature_select import brute_force_root_split

    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) + 1.5 * X[:, 0]
        config = ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=3,
                              features_per_split=d, bootstrap=False, seed=seed)
        tree = fit_tree(X, y, config, Rng(seed))
        oracle = brute_force_root_split(X, y, 3)
        if oracle is None:
            brute_ok &= tree.is_leaf
        else:
            brute_ok &= (tree.feature == oracle[1]) and abs(tree.threshold - oracle[2]) < 1e-12
    announce(
        "feature importance: sum==1, signal first 100/100, brute-force root splits",
        sums_ok and wins == 100 and brute_ok,
        f"signal wins {wins}/100",
    )


# ---------------------------------------------------------------------------
# Metrics oracle
# ---------------------------------------------------------------------------


def test_metrics_oracle():
    report = metrics_from_confusion(np.array([[40, 10], [5, 45]]), ["a", "b"])
    b = report["per_class"]["b"]
    hand_ok = (
        abs(report["accuracy"] - 0.85) < 1e-12
        and abs(b["precision"] - 45 / 55) < 1e-12
        and abs(b["recall"] - 0.9) < 1e-12
        and abs(b["f1"] - 0.8571) < 1e-4
        and abs(b["precision"] - 0.8182) < 1e-4
    )
    perfect = metrics_from_confusion(np.array([[50, 0], [0, 50]]), ["a", "b"])
    perfect_ok = perfect["accuracy"] == 1.0 and all(
        row["f1"] == 1.0 for row in perfect["per_class"].values())
    degenerate = metrics_from_confusion(np.array([[30, 0], [0, 0]]), ["only", "ghost"])
    degenerate_ok = (
        degenerate["accuracy"] == 1.0
        and all(np.isfinite(row["f1"]) for row in degenerate["per_class"].values())
        and "ghost" in degenerate["undefined_precision_classes"]
        and "ghost" in degenerate["undefined_recall_classes"]
    )
    announce(
        "metrics: confusion [[40,10],[5,45]] and edge cases",
        hand_ok and perfect_ok and degenerate_ok,
        f"acc {report['accuracy']}, P1 {b['precision']:.4f}, "
        f"R1 {b['recall']:.1f}, F1 {b['f1']:.4f}",
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_serialization_round_trips_and_rejection(tmp_path):
    model = build("lstm", ClassificationMode.GROUPED, canonical_top20(), seed=21)
    model.class_names = [f"c{i}" for i in range(8)]
    model.normalizer = fit_normalizer(np.random.default_rng(1).normal(size=(5, 20)))
    model.cache_sha256 = "0f" * 32
    model_path = tmp_path / "model.fsnn"
    save(model, model_path)
    loaded = load(model_path)
    model_ok = all(
        np.array_equal(a.value, b.value) for a, b in zip(model.parameters(), loaded.parameters())
    ) and (loaded.architecture, loaded.mode) == (model.architecture, model.mode)

    rng = np.random.default_rng(2)
    X = rng.normal(size=(31, 7)).astype(np.float32)
    y = rng.integers(0, 34, size=31)
    cache_path = tmp_path / "d.fsds"
    meta = {"mode": "multi", "classes": list(build_vocabulary(ClassificationMode.MULTI).classes)}
    write_cache(cache_path, X, y, [f"f{i}" for i in range(7)], meta)
    X2, y2, names, _, meta2 = read_cache(cache_path)
    cache_ok = np.array_equal(X, X2) and np.array_equal(y, y2) and meta2 == meta

    model_path.write_bytes(model_path.read_bytes()[:-3])
    try:
        load(model_path)
        reject_model = False
    except SchemaError:
        reject_model = True
    cache_path.write_bytes(b"JUNK" + cache_path.read_bytes()[4:])
    try:
        read_cache(cache_path)
        reject_cache = False
    except SchemaError:
        reject_cache = True
    announce(
        "serialization: bit-exact round trips, corrupt files rejected",
        model_ok and cache_ok and reject_model and reject_cache,
    )

"""Command-line pipeline: ingest -> select -> train -> evaluate -> predict.

Commands read an optional JSON run-config (``--config``); explicit flags win
over config values. Every command is deterministic given identical inputs
and seeds, and ``train`` writes a manifest sufficient to replay the run.
``train`` takes its feature list from ``features.txt`` in the run directory,
or the canonical top 20 without one; ``evaluate`` and ``predict`` take the
seed, feature list and class names from the model file alone.

Exit codes are a stable contract:

    0  success
    1  configuration error (a config value of the wrong type or range, or a
       ``select --top-k`` above the cache's column count)
    2  missing input (file, cache, or model not found / empty, a file where a
       directory is expected or the reverse, a class with < 2 rows to split)
    3  schema error (missing column, an input CSV that is not UTF-8, corrupt
       cache or model file, a model whose feature or class list does not fit
       its spec, or a predict input row with a non-numeric, NaN or infinite
       feature)
    4  numeric failure (non-finite loss or gradient)
    5  artifact mismatch: a classification mode that differs between
       artifacts, or an ``evaluate`` cache whose sha256 is not the one the
       model records (or a model that records none)

Every run splits one way: a seeded, stratified 80/20 train/test split, and a
10% validation carve-out of the training side. Features are min-max scaled
by stats fitted on the training rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ClassificationMode,
    apply_normalizer,
    build_vocabulary,
    fit_normalizer,
    load_csv,
    map_labels,
    meta_path,
    read_cache,
    read_flows,
    read_meta,
    schema,
    stratified_split,
    subsample_indices,
    write_cache,
)
from .errors import (
    CacheMismatchError,
    ClassTooSmallError,
    ConfigError,
    CorruptCacheError,
    CorruptModelError,
    EmptyInputError,
    InputEncodingError,
    InvalidRowError,
    InvalidSpecError,
    KTooLargeError,
    MissingColumnError,
    ModeMismatchError,
    NonFiniteGradientError,
    NonFiniteLossError,
)
from .features import (
    ForestConfig,
    canonical_top20,
    compute_importances,
    export_importance_csv,
    fit_forest,
    select_top_k,
)
from .models import ModelSpec, build, load, save
from .training import DEFAULT_LEARNING_RATES, evaluate, export_history, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISSING_INPUT = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4
EXIT_MISMATCH = 5


@dataclass
class RunConfig:
    data: list = None  # CSV files or directories
    mode: str = "multi"
    arch: str = "cnn"
    recompute_importance: bool = False
    top_k: int = 20
    subsample: float = 1.0
    seed: int = 0
    epochs: int = 20
    batch_size: int = 256
    lr: float | None = None  # None -> DEFAULT_LEARNING_RATES[arch]
    out: str = "out"

    def __post_init__(self):
        self.explicit_fields = set()

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        values = {}
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                values = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"invalid JSON in {config_path}: {exc}") from exc
        if isinstance(values, dict) and "config" in values and "tool_version" in values:
            values = values["config"]  # a run manifest: replay its resolved config
        if not isinstance(values, dict):
            raise ConfigError(f"{config_path} does not hold a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**values)
        explicit = set(values)
        for name in known:
            flag = getattr(args, name, None)
            if flag is not None:
                setattr(config, name, flag)
                explicit.add(name)
        config.explicit_fields = explicit
        config.validate()
        return config

    def validate(self) -> None:
        admits = {"bool": bool, "int": int, "float": (int, float), "str": str, "list": list}
        for name, spec in self.__dataclass_fields__.items():
            value = getattr(self, name)
            kind = spec.type.split(" | ")[0]  # the annotation's text: "int", "str | None", ...
            if value is None and spec.default is None:
                continue
            # a bool is not a number (though Python's bool is an int)
            if (isinstance(value, bool) and kind != "bool") or not isinstance(value, admits[kind]):
                raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
        if self.data is not None and not all(isinstance(entry, str) for entry in self.data):
            raise ConfigError(f"data must be a list of paths, got {self.data!r}")
        if self.mode not in ("binary", "grouped", "multi"):
            raise ConfigError(f"mode must be binary|grouped|multi, got {self.mode!r}")
        if self.arch not in ("cnn", "lstm"):
            raise ConfigError(f"arch must be cnn|lstm, got {self.arch!r}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")


def _emit(text: str) -> None:
    """Print a result line to stdout.

    A reader that closes the pipe early (``flowsentinel evaluate | head -1``)
    is not an error: the command's files are written either way, so the rest
    of stdout goes to the null device and the command keeps its exit code.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _collect_csvs(entries) -> list:
    paths = []
    for entry in entries or []:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        else:
            paths.append(p)
    return paths


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise NotADirectoryError(f"--out {out} is a file, not a directory") from None
    return out


def _feature_list(out: Path) -> list:
    """``features.txt`` in the run directory, or the canonical top 20 without one."""
    path = out / "features.txt"
    if not path.exists():
        return canonical_top20()
    names = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not names:
        raise EmptyInputError(f"feature list {path} is empty")
    return names


def cmd_ingest(config: RunConfig) -> int:
    paths = _collect_csvs(config.data)
    if not paths:
        raise EmptyInputError("no input files")
    out = _out_dir(config)
    mode = ClassificationMode(config.mode)
    (X, labels), report = load_csv(paths)
    vocab = build_vocabulary(mode)
    kept, y, dropped_unknown = map_labels(labels, vocab)
    if dropped_unknown:
        report.drop("unknown_label", dropped_unknown)
        report.rows_retained -= dropped_unknown
    X = X[kept].astype(np.float32)
    if config.subsample < 1.0 and y.size:
        from .rng import Rng

        keep = subsample_indices(y, config.subsample, Rng(config.seed).spawn("subsample"))
        X, y = X[keep], y[keep]
    class_histogram = {
        vocab.classes[c]: int(n) for c, n in zip(*np.unique(y, return_counts=True))
    } if y.size else {}
    meta = {
        "mode": mode.value,
        "classes": list(vocab.classes),
        "seed": config.seed,
        "subsample": config.subsample,
        "rows": int(y.size),
        "class_histogram": class_histogram,
        "ingest_report": report.to_dict(),
        "tool_version": __version__,
    }
    cache_path = out / "dataset.fsds"
    write_cache(cache_path, X, y, list(schema.FEATURE_COLUMNS), meta=meta)
    (out / "ingest_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    _emit(f"wrote {cache_path} ({y.size} rows, mode={mode.value}) and ingest_report.json")
    return EXIT_OK


def cmd_select(config: RunConfig) -> int:
    out = _out_dir(config)
    features_path = out / "features.txt"
    if config.recompute_importance:
        cache_path = out / "dataset.fsds"
        if not cache_path.exists():
            raise FileNotFoundError(f"missing cache {cache_path}")
        X, y, names, meta, _ = read_cache(cache_path)
        if config.top_k > len(names):
            raise KTooLargeError(f"top_k={config.top_k} exceeds the cache's {len(names)} columns")
        if meta and meta.get("mode") != "multi":
            print(
                f"note: importance regression target uses the cache's "
                f"{meta.get('mode')!r} class indices; a multi-mode cache mirrors "
                f"the reference pipeline",
                file=sys.stderr,
            )
        forest_config = ForestConfig(seed=config.seed)
        trees = fit_forest(X.astype(np.float64), y.astype(np.float64), forest_config)
        report = compute_importances(trees, names)
        top = select_top_k(report, config.top_k)
        export_importance_csv(report, out / "importance.csv")
        _emit(f"wrote importance.csv ({len(report.ranking)} features ranked)")
    else:
        top = canonical_top20()[: config.top_k] if config.top_k <= 20 else None
        if top is None:
            raise ConfigError("canonical list has 20 features; use --recompute-importance "
                              "for larger top_k")
    features_path.write_text("".join(name + "\n" for name in top), encoding="utf-8")
    _emit(f"wrote {features_path} ({len(top)} features)")
    return EXIT_OK


def _load_split(cache_path: Path, feature_names: list, seed: int,
                trained_on: str | None = None):
    """Read the cache once and draw a run's stratified train/test split.

    Returns ``((X_train, y_train), (X_test, y_test), sha256)`` with the
    ``feature_names`` columns in that order, unscaled, and the cache file's
    digest. ``train`` and ``evaluate`` both split here, from the same seed,
    so ``evaluate`` scores exactly the rows that training held out. A cache
    whose digest is not ``trained_on``, when given, is refused before the
    split is drawn.
    """
    X, y, cache_columns, _, sha256 = read_cache(cache_path)
    if trained_on is not None and sha256 != trained_on:
        raise CacheMismatchError(
            f"{cache_path} (sha256 {sha256[:12]}) is not the cache the model was trained on "
            f"(sha256 {trained_on[:12]}); evaluate scores the rows that training held out"
        )
    missing = [name for name in feature_names if name not in cache_columns]
    if missing:
        raise MissingColumnError(missing[0], str(cache_path))
    X = X[:, [cache_columns.index(name) for name in feature_names]]
    split = stratified_split(y, seed=seed)
    return (X[split.train], y[split.train]), (X[split.test], y[split.test]), sha256


def cmd_train(config: RunConfig) -> int:
    out = _out_dir(config)
    cache_path = out / "dataset.fsds"
    if not cache_path.exists():
        raise FileNotFoundError(f"missing cache {cache_path}")
    meta = read_meta(cache_path)
    if meta is None:  # the only record of the cache's mode and class names
        raise FileNotFoundError(f"missing cache sidecar {meta_path(cache_path)}")
    feature_names = _feature_list(out)
    cache_mode = meta.get("mode")
    if cache_mode and cache_mode != config.mode:
        if "mode" in config.explicit_fields:
            raise ModeMismatchError(
                f"cache was ingested in {cache_mode!r} mode but --mode is {config.mode!r}"
            )
        config.mode = cache_mode  # inherit the cache's regime when unspecified
    mode = ClassificationMode(config.mode)
    (X_train, y_train), (X_test, y_test), cache_sha256 = _load_split(
        cache_path, feature_names, config.seed
    )
    stats = fit_normalizer(X_train)
    X_train = apply_normalizer(X_train, stats).astype(np.float32)
    X_test = apply_normalizer(X_test, stats).astype(np.float32)
    spec = ModelSpec(architecture=config.arch, mode=mode, input_features=len(feature_names))
    model = build(spec, seed=config.seed)  # the split seed, which evaluate reads back
    model.feature_names = list(feature_names)
    model.class_names = list(meta["classes"])
    model.normalizer = stats
    model.cache_sha256 = cache_sha256

    learning_rate = config.lr if config.lr is not None else DEFAULT_LEARNING_RATES[config.arch]
    history = train(model, X_train, y_train, epochs=config.epochs,
                    batch_size=config.batch_size, learning_rate=learning_rate)
    model_path = out / "model.fsnn"
    save(model, model_path)
    export_history(history, out / "history.csv")
    report = evaluate(model, X_test, y_test, class_names=model.class_names)
    manifest = {
        "config": asdict(config),
        "tool_version": __version__,
        "cache_sha256": cache_sha256,
        "cache_rows": len(y_train) + len(y_test),
        "train_rows": len(y_train),
        "test_rows": len(y_test),
        "features": list(feature_names),
        "classes": list(model.class_names),
        "learning_rate": learning_rate,
        "final_train": {
            "loss": history.final().train_loss,
            "accuracy": history.final().train_acc,
            "val_loss": history.final().val_loss,
            "val_accuracy": history.final().val_acc,
        },
        "test_metrics": {
            "accuracy": report.accuracy,
            "macro_f1": report.macro_f1,
            "weighted_f1": report.weighted_f1,
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    _emit(
        f"wrote {model_path}, history.csv, manifest.json "
        f"(test accuracy {report.accuracy:.4f})"
    )
    return EXIT_OK


def _load_model(model_path: str):
    """The model at ``model_path``, with the normalizer it was trained under.

    A missing file is a missing input (exit 2); a corrupt file, one without a
    normalizer, or one whose feature or class list does not fit its spec is a
    schema error (exit 3).
    """
    path = Path(model_path)
    if not path.exists():
        raise FileNotFoundError(f"missing model {path}")
    model = load(path)
    if model.normalizer is None:
        raise CorruptModelError(f"{path}: model carries no normalizer")
    spec = model.spec
    if len(model.feature_names) != spec.input_features:
        raise CorruptModelError(f"{path}: model lists {len(model.feature_names)} features, "
                                f"its spec takes {spec.input_features}")
    if len(model.class_names) != spec.mode.class_count:
        raise CorruptModelError(f"{path}: model lists {len(model.class_names)} classes, "
                                f"{spec.mode.value!r} mode has {spec.mode.class_count}")
    return model


def cmd_evaluate(config: RunConfig, model_path: str) -> int:
    out = _out_dir(config)
    model = _load_model(model_path)
    cache_path = out / "dataset.fsds"
    if not cache_path.exists():
        raise FileNotFoundError(f"missing cache {cache_path}")
    if "seed" in config.explicit_fields and config.seed != model.rng_seed:
        raise ConfigError(
            f"seed {config.seed} contradicts the split seed {model.rng_seed} recorded in "
            f"{model_path}; evaluate scores the rows that training held out"
        )
    cache_mode = (read_meta(cache_path) or {}).get("mode")
    if cache_mode and cache_mode != model.spec.mode.value:
        raise ModeMismatchError(f"model mode {model.spec.mode.value!r} != cache mode {cache_mode!r}")
    if model.cache_sha256 is None:
        raise CacheMismatchError(f"{model_path} records no dataset cache digest; retrain it")
    _, (X_test, y_test), _ = _load_split(
        cache_path, model.feature_names, model.rng_seed, model.cache_sha256
    )
    X_test = apply_normalizer(X_test, model.normalizer)
    report = evaluate(model, X_test.astype(np.float32), y_test, class_names=model.class_names)
    (out / "metrics.json").write_text(report.to_json(), encoding="utf-8")
    (out / "metrics.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    _emit(report.to_text())
    return EXIT_OK


def cmd_predict(config: RunConfig, model_path: str, input_path: str) -> int:
    model = _load_model(model_path)
    source = Path(input_path)
    if not source.exists():
        raise FileNotFoundError(f"missing input {source}")
    X, _, bad = read_flows(source, model.feature_names)
    if bad:
        row_id, column, reason = bad[0]
        raise InvalidRowError(f"{source}: row_id {row_id}, column {column!r}: {reason}")
    if not len(X):
        raise EmptyInputError(f"no rows in {source}")
    X = apply_normalizer(X, model.normalizer).astype(np.float32)
    out = _out_dir(config)
    target = out / "predictions.csv"
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "predicted_class", "confidence"])
        for start, probs in model.batches(X):
            classes, confidences = model.decide(probs)
            writer.writerows(
                [start + i, model.class_names[int(klass)], f"{conf:.6f}"]
                for i, (klass, conf) in enumerate(zip(classes, confidences))
            )
    _emit(f"wrote {target} ({len(X)} predictions)")
    return EXIT_OK


def cmd_inspect(model_path: str) -> int:
    path = Path(model_path)
    if not path.exists():
        raise FileNotFoundError(f"missing model {path}")
    model = load(path)
    info = {
        "spec": model.spec.to_dict(),
        "seed": model.rng_seed,
        "parameter_count": model.parameter_count(),
        "features": model.feature_names,
        "classes": model.class_names,
        "has_normalizer": model.normalizer is not None,
    }
    _emit(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsentinel", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-config; flags override its values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (default: out)")

    p_ingest = sub.add_parser("ingest", help="parse CSVs into a dataset cache")
    common(p_ingest)
    p_ingest.add_argument("--data", nargs="+", default=None, help="CSV files or directories")
    p_ingest.add_argument("--mode", choices=["binary", "grouped", "multi"], default=None)
    p_ingest.add_argument("--subsample", type=float, default=None)

    p_select = sub.add_parser("select", help="emit the feature list (canonical or recomputed)")
    common(p_select)
    p_select.add_argument("--top-k", dest="top_k", type=int, default=None)
    p_select.add_argument("--recompute-importance", dest="recompute_importance",
                          action="store_true", default=None)

    p_train = sub.add_parser("train", help="train a model on the cached dataset")
    common(p_train)
    p_train.add_argument("--arch", choices=["cnn", "lstm"], default=None)
    p_train.add_argument("--mode", choices=["binary", "grouped", "multi"], default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)

    p_eval = sub.add_parser("evaluate", help="score a model on the held-out split")
    common(p_eval)
    p_eval.add_argument("--model", required=True)

    p_pred = sub.add_parser("predict", help="classify rows from a CSV")
    common(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)

    p_inspect = sub.add_parser("inspect", help="print a model file's header")
    p_inspect.add_argument("--model", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.model)
        config = RunConfig.load(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "select":
            return cmd_select(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model)
        if args.command == "predict":
            return cmd_predict(config, args.model, args.input)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidSpecError, KTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, EmptyInputError,
            ClassTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (MissingColumnError, InputEncodingError, InvalidRowError, CorruptCacheError,
            CorruptModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NonFiniteLossError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ModeMismatchError, CacheMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: ingest -> select -> train -> evaluate -> predict.

Commands read an optional JSON run-config (``--config``); explicit flags win
over config values. Every command is deterministic given identical inputs
and seeds, and ``train`` writes a manifest sufficient to replay the run.
``train`` takes its feature list from ``features.txt`` in the run directory,
or the canonical top 20 without one; ``evaluate`` and ``predict`` take the
architecture, mode, seed, feature list, class names and normalizer from the
model file alone, and ``inspect`` prints that header.

Exit codes are a stable contract:

    0  success
    1  configuration error (a flag or config value of the wrong type or range,
       or a ``select --top-k`` above the cache's column count)
    2  missing input (file, cache, cache sidecar or model not found / empty, a
       file where a directory is expected or the reverse, any other path the
       system refuses, such as a name too long, a class with < 2 rows to
       split, or a ``select --recompute-importance`` cache whose target is
       constant, so that no tree splits and no feature has any importance)
    3  schema error (missing column, an input CSV that is not UTF-8 or has a
       cell over ``csv``'s field size limit, a ``features.txt`` that is not
       UTF-8, a corrupt cache (column names that are not UTF-8 among them) or
       model file, a cache sidecar or cache contents that ingest would not
       write (a class index outside the sidecar's classes, a NaN or
       infinite feature), a model header that train would not write (among
       them one whose class names repeat), a model parameter that holds a
       NaN or infinity, or a predict input row with a non-numeric, NaN or
       infinite feature)
    4  numeric failure (non-finite loss or gradient)
    5  artifact mismatch: a classification mode that differs between
       artifacts, or an ``evaluate`` cache other than the one the model records

Every run splits one way: a seeded, stratified 80/20 train/test split, and a
10% validation carve-out of the training side. Features are min-max scaled
by stats fitted on the training rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ClassificationMode,
    apply_normalizer,
    csv_cell,
    fit_normalizer,
    iter_flows,
    load_csv,
    map_labels,
    read_cache,
    schema,
    stratified_split,
    subsample_indices,
    write_cache,
)
from .errors import ConfigError, FlowSentinelError, MismatchError, MissingInputError, SchemaError
from .features import (
    ForestConfig,
    canonical_top20,
    compute_importances,
    export_importance_csv,
    fit_forest,
)
from .models import ARCHITECTURES, build, load, model_header, save
from .training import DEFAULT_LEARNING_RATES, evaluate, export_history, metrics_text, train

# glibc's mallopt parameters, and its 64-bit ceiling for the mmap threshold
# that it otherwise raises itself (DEFAULT_MMAP_THRESHOLD_MAX)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 << 20


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
            except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
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
        modes = [mode.value for mode in ClassificationMode]
        if self.mode not in modes:
            raise ConfigError(f"mode must be {'|'.join(modes)}, got {self.mode!r}")
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"arch must be {'|'.join(ARCHITECTURES)}, got {self.arch!r}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # compared, not converted: an int too large for a float is not finite either
        if self.lr is not None and not 0 < self.lr <= sys.float_info.max:
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    names = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not names:
        raise MissingInputError(f"feature list {path} is empty")
    return names


def cmd_ingest(config: RunConfig) -> int:
    paths = _collect_csvs(config.data)
    if not paths:
        raise MissingInputError("no input files")
    out = _out_dir(config)
    mode = ClassificationMode(config.mode)
    (X, labels), report = load_csv(paths)
    kept, y, dropped_unknown = map_labels(labels, mode)
    if dropped_unknown:
        report.drop("unknown_label", dropped_unknown)
    X = X[kept]
    if config.subsample < 1.0 and y.size:
        from .rng import Rng

        keep = subsample_indices(y, config.subsample, Rng(config.seed).spawn("subsample"))
        X, y = X[keep], y[keep]
    cache_path = out / "dataset.fsds"
    write_cache(cache_path, X, y, list(schema.FEATURE_COLUMNS), mode, seed=config.seed,
                subsample=config.subsample, report=report)
    (out / "ingest_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    _emit(f"wrote {cache_path} ({y.size} rows, mode={mode.value}) and ingest_report.json")
    return 0


def cmd_select(config: RunConfig) -> int:
    out = _out_dir(config)
    features_path = out / "features.txt"
    if config.recompute_importance:
        cache_path = out / "dataset.fsds"
        X, y, names, _, mode = read_cache(cache_path)
        if config.top_k > len(names):
            raise ConfigError(f"top_k={config.top_k} exceeds the cache's {len(names)} columns")
        if mode is not ClassificationMode.MULTI:
            print(f"note: importance regression target uses the cache's {mode.value!r} class "
                  f"indices; a multi-mode cache mirrors the reference pipeline", file=sys.stderr)
        trees = fit_forest(X, y, ForestConfig(seed=config.seed))
        report = compute_importances(trees, names)
        if report.degenerate:
            raise MissingInputError(
                f"no tree could split {cache_path}: its target is constant (or its rows too "
                f"few or alike), so every importance is 0; run select without "
                f"--recompute-importance for the canonical list"
            )
        top = [name for name, _ in report.ranking[: config.top_k]]
        export_importance_csv(report, out / "importance.csv")
        _emit(f"wrote importance.csv ({len(report.ranking)} features ranked)")
    else:
        canonical = canonical_top20()
        if config.top_k > len(canonical):
            raise ConfigError("canonical list has 20 features; use --recompute-importance "
                              "for larger top_k")
        top = canonical[: config.top_k]
    features_path.write_text("".join(name + "\n" for name in top), encoding="utf-8")
    _emit(f"wrote {features_path} ({len(top)} features)")
    return 0


def _columns(X, cache_columns: list, feature_names: list, cache_path: Path):
    """A copy of the ``feature_names`` columns of a cache's X, in that order."""
    missing = [name for name in feature_names if name not in cache_columns]
    if missing:
        raise SchemaError(f"missing column {missing[0]!r} in {cache_path}")
    return X[:, [cache_columns.index(name) for name in feature_names]]


def _split(X, y, seed: int):
    """A run's stratified train/test split, ``((X_train, y_train), (X_test, y_test))``.
    ``train`` and ``evaluate`` both split here, from the same seed, so ``evaluate``
    scores exactly the rows that training held out."""
    split = stratified_split(y, seed=seed)
    return (X[split.train], y[split.train]), (X[split.test], y[split.test])


def cmd_train(config: RunConfig) -> int:
    out = _out_dir(config)
    cache_path = out / "dataset.fsds"
    X, y, cache_columns, cache_sha256, mode = read_cache(cache_path)
    feature_names = _feature_list(out)
    if "mode" in config.explicit_fields and ClassificationMode(config.mode) is not mode:
        raise MismatchError(f"cache was ingested in {mode.value!r} mode but --mode is "
                            f"{config.mode!r}")
    config.mode = mode.value  # inherit the cache's regime when unspecified
    X = _columns(X, cache_columns, feature_names, cache_path)  # frees the cache's bytes
    (X_train, y_train), (X_test, y_test) = _split(X, y, config.seed)
    del X, y  # so that training holds the split only
    stats = fit_normalizer(X_train)
    X_train = apply_normalizer(X_train, stats)
    X_test = apply_normalizer(X_test, stats)
    # the split seed, which evaluate reads back
    model = build(config.arch, mode, feature_names, seed=config.seed)
    model.normalizer = stats
    model.cache_sha256 = cache_sha256

    learning_rate = config.lr if config.lr is not None else DEFAULT_LEARNING_RATES[config.arch]
    history = train(model, X_train, y_train, epochs=config.epochs,
                    batch_size=config.batch_size, learning_rate=learning_rate)
    model_path = out / "model.fsnn"
    save(model, model_path)
    export_history(history, out / "history.csv")
    report = evaluate(model, X_test, y_test)
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
            "accuracy": report["accuracy"],
            "macro_f1": report["macro"]["f1"],
            "weighted_f1": report["weighted"]["f1"],
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    _emit(
        f"wrote {model_path}, history.csv, manifest.json "
        f"(test accuracy {report['accuracy']:.4f})"
    )
    return 0


def cmd_evaluate(config: RunConfig, model_path: str) -> int:
    out = _out_dir(config)
    model = load(model_path)
    cache_path = out / "dataset.fsds"
    if "seed" in config.explicit_fields and config.seed != model.rng_seed:
        raise ConfigError(
            f"seed {config.seed} contradicts the split seed {model.rng_seed} recorded in "
            f"{model_path}; evaluate scores the rows that training held out"
        )
    X, y, cache_columns, sha256, mode = read_cache(cache_path)
    if mode is not model.mode:
        raise MismatchError(f"model mode {model.mode.value!r} != cache mode {mode.value!r}")
    if sha256 != model.cache_sha256:
        raise MismatchError(
            f"{cache_path} (sha256 {sha256[:12]}) is not the cache the model was trained on "
            f"(sha256 {model.cache_sha256[:12]}); evaluate scores the rows that training held out"
        )
    X = _columns(X, cache_columns, model.feature_names, cache_path)
    _, (X_test, y_test) = _split(X, y, model.rng_seed)
    del X, y
    X_test = apply_normalizer(X_test, model.normalizer)
    report = evaluate(model, X_test, y_test)
    text = metrics_text(report)
    (out / "metrics.json").write_text(json.dumps(report, indent=2, sort_keys=True),
                                      encoding="utf-8")
    (out / "metrics.txt").write_text(text + "\n", encoding="utf-8")
    _emit(text)
    return 0


def cmd_predict(config: RunConfig, model_path: str, input_path: str) -> int:
    model = load(model_path)
    source = Path(input_path)
    blocks = [np.empty((0, len(model.feature_names)), dtype=np.float32)]
    with contextlib.closing(iter_flows(source, model.feature_names)) as flows:
        for block, _, bad in flows:  # in file order, so the first bad row stops the read
            if bad:
                row_id, column, reason = bad[0]
                raise SchemaError(f"{source}: row_id {row_id}, column {column!r}: {reason}")
            blocks.append(apply_normalizer(block, model.normalizer))  # held as float32
    X = np.concatenate(blocks)
    del blocks  # so that inference does not hold the input twice
    if not len(X):
        raise MissingInputError(f"no rows in {source}")
    out = _out_dir(config)
    target = out / "predictions.csv"
    names = [csv_cell(name) for name in model.class_names]
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row_id", "predicted_class", "confidence"])
        for start, probs in model.batches(X):
            classes, confidences = model.decide(probs)
            fh.writelines(["%d,%s,%.6f\r\n" % (i, names[klass], conf) for i, (klass, conf)
                           in enumerate(zip(classes.tolist(), confidences.tolist()), start)])
    _emit(f"wrote {target} ({len(X)} predictions)")
    return 0


def cmd_inspect(model_path: str) -> int:
    model = load(model_path)
    info = {**model_header(model), "parameter_count": model.parameter_count()}
    _emit(json.dumps(info, indent=2, sort_keys=True))
    return 0


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
    p_ingest.add_argument("--mode", default=None)
    p_ingest.add_argument("--subsample", type=float, default=None)

    p_select = sub.add_parser("select", help="emit the feature list (canonical or recomputed)")
    common(p_select)
    p_select.add_argument("--top-k", dest="top_k", type=int, default=None)
    p_select.add_argument("--recompute-importance", dest="recompute_importance",
                          action="store_true", default=None)

    p_train = sub.add_parser("train", help="train a model on the cached dataset")
    common(p_train)
    p_train.add_argument("--arch", default=None)
    p_train.add_argument("--mode", default=None)
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


def pin_malloc_thresholds() -> None:
    """Keep freed heap in this process, on glibc; elsewhere do nothing.

    glibc starts with a 128 KiB mmap threshold and sets it, and the trim
    threshold at twice it, from the largest mmapped chunk freed so far. An
    LSTM train step frees more than the trim threshold at the top of the heap,
    so glibc gives it back to the kernel and the next step page-faults it in
    again. Setting both thresholds where that rule ends up, the mmap threshold
    at its ceiling and the trim threshold at twice it, keeps the memory for
    reuse. Setting either one alone switches the rule off and faults more. The
    arithmetic is unchanged, and forked workers inherit the setting.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a refused setting (mallopt returns 0) leaves glibc's default, which works
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)


def main(argv=None) -> int:
    pin_malloc_thresholds()
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
    except FlowSentinelError as exc:
        if exc.exit_code is None:  # an internal error: a bug, not a bad input
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file missing, unreadable or misnamed, or of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

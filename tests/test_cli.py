"""End-to-end CLI behaviour on a small generated fixture."""

import csv
import hashlib
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import flowsentinel
from flowsentinel import cli, models
from flowsentinel.cli import main
from flowsentinel.data import (
    ClassificationMode,
    FeatureStats,
    read_cache,
    schema,
    write_fixture_csv,
)
from flowsentinel.errors import EmptyInputError
from flowsentinel.features import canonical_top20, forest
from flowsentinel.models import ModelSpec, build, load, save

ROWS = 600  # small but every class keeps >= 2 rows


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "flows.csv"
    write_fixture_csv(path, rows=ROWS, seed=3)
    return path


@pytest.fixture()
def workdir(tmp_path, fixture_csv):
    out = tmp_path / "out"
    code = main(["ingest", "--data", str(fixture_csv), "--mode", "binary", "--out", str(out)])
    assert code == 0
    return out


def run(*argv):
    return main(list(argv))


def cli_env():
    """The environment for a ``python -m flowsentinel.cli`` child of this tree."""
    src = str(Path(flowsentinel.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# predict input cells that stop predict, with the reason it names (None: a
# row cut short before the cell)
BAD_CELL_REASONS = {"nan": "nan", "inf": "inf", "n/a": "non_numeric", None: "non_numeric",
                    "2.0#x": "non_numeric", "1e400": "inf"}


class TestIngest:
    def test_empty_directory_exit_2(self, tmp_path, capsys):
        code = run("ingest", "--data", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "no input files" in capsys.readouterr().err

    def test_writes_cache_and_report(self, workdir):
        assert (workdir / "dataset.fsds").exists()
        report = json.loads((workdir / "ingest_report.json").read_text())
        assert report["rows_read"] == ROWS
        assert report["rows_dropped"] == 0

    def test_malformed_rows_counted(self, tmp_path, fixture_csv):
        bad = tmp_path / "bad.csv"
        lines = fixture_csv.read_text().strip().split("\n")
        for i in range(1, 6):
            cells = lines[i].split(",")
            cells[0] = "NaN"
            lines[i] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("ingest", "--data", str(bad), "--mode", "multi", "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rows_dropped"] == 5
        assert report["dropped_by_reason"]["nan"] == 5
        X, y, _, meta, _ = read_cache(out / "dataset.fsds")
        assert X.shape[0] == ROWS - 5
        assert meta["mode"] == "multi"

    def test_rerun_byte_identical(self, tmp_path, fixture_csv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                       "--out", str(out)) == 0
        assert (out_a / "dataset.fsds").read_bytes() == (out_b / "dataset.fsds").read_bytes()

    def test_missing_column_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Srate,label\n1.0,BenignTraffic\n")
        code = run("ingest", "--data", str(bad), "--out", str(tmp_path / "out"))
        assert code == 3


class TestSelect:
    def test_default_emits_canonical_list(self, workdir):
        assert run("select", "--out", str(workdir)) == 0
        lines = (workdir / "features.txt").read_text().strip().split("\n")
        assert len(lines) == 20
        assert lines[0] == "Srate"
        assert lines[-1] == "IAT"

    def test_top_k_five(self, workdir):
        assert run("select", "--top-k", "5", "--out", str(workdir)) == 0
        lines = (workdir / "features.txt").read_text().strip().split("\n")
        assert lines == ["Srate", "Rate", "Duration", "syn_count", "Weight"]

    def test_recompute_missing_cache_exit_2(self, tmp_path):
        assert run("select", "--recompute-importance", "--out", str(tmp_path / "nope")) == 2

    def test_recompute_top_k_above_columns_exit_1_before_fitting(self, workdir, monkeypatch,
                                                                   capsys):
        monkeypatch.setattr(cli, "fit_forest", lambda *a, **k: pytest.fail("forest was fitted"))
        code = run("select", "--recompute-importance", "--top-k", "47", "--out", str(workdir))
        assert code == 1
        assert "47" in capsys.readouterr().err
        assert not (workdir / "importance.csv").exists()

    def test_recompute_deterministic(self, workdir):
        assert run("select", "--recompute-importance", "--top-k", "10",
                   "--seed", "5", "--out", str(workdir)) == 0
        first = (workdir / "importance.csv").read_bytes()
        features_first = (workdir / "features.txt").read_text()
        assert run("select", "--recompute-importance", "--top-k", "10",
                   "--seed", "5", "--out", str(workdir)) == 0
        assert (workdir / "importance.csv").read_bytes() == first
        assert (workdir / "features.txt").read_text() == features_first
        rows = first.decode().strip().split("\n")
        assert rows[0] == "feature,importance"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_recompute_rerun_byte_identical(self, tmp_path, fixture_csv):
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("ingest", "--data", str(fixture_csv), "--mode", "multi",
                       "--out", str(out)) == 0
            assert run("select", "--recompute-importance", "--seed", "5", "--out", str(out)) == 0
            digests.append([hashlib.sha256((out / artefact).read_bytes()).hexdigest()
                            for artefact in ("importance.csv", "features.txt")])
        assert digests[0] == digests[1]

    def test_recompute_leaves_no_worker_running(self, workdir):
        assert run("select", "--recompute-importance", "--out", str(workdir)) == 0
        assert (workdir / "importance.csv").exists()
        assert multiprocessing.active_children() == []

    def test_recompute_worker_error_exit_2_leaves_no_worker(self, workdir, monkeypatch, capsys):
        def grow(*args):
            raise EmptyInputError("a tree without rows")

        monkeypatch.setattr(forest, "usable_cpus", lambda: 2)  # a pool on any host
        monkeypatch.setattr(forest, "grow_tree", grow)
        code = run("select", "--recompute-importance", "--out", str(workdir))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: a tree without rows"
        assert not (workdir / "importance.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs two usable CPUs")
    def test_recompute_on_one_cpu_writes_the_same_bytes(self, tmp_path, fixture_csv):
        out = tmp_path / "out"
        assert run("ingest", "--data", str(fixture_csv), "--mode", "multi",
                   "--out", str(out)) == 0
        cpu = min(os.sched_getaffinity(0))
        written = []
        for pin in (None, lambda: os.sched_setaffinity(0, {cpu})):
            proc = subprocess.run(
                [sys.executable, "-m", "flowsentinel.cli", "select", "--recompute-importance",
                 "--seed", "5", "--out", str(out)],
                capture_output=True, env=cli_env(), preexec_fn=pin, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            written.append((out / "importance.csv").read_bytes())
        assert written[0] == written[1]


def one_row_class_cache(tmp_path, fixture_csv):
    """A multi-mode cache of the fixture with all but one row of its first label removed."""
    header, *rows = fixture_csv.read_text().strip().split("\n")
    label = rows[0].rsplit(",", 1)[1]
    rows = [rows[0]] + [r for r in rows[1:] if r.rsplit(",", 1)[1] != label]
    data = tmp_path / "one.csv"
    data.write_text("\n".join([header] + rows) + "\n")
    out = tmp_path / "one_out"
    assert run("ingest", "--data", str(data), "--mode", "multi", "--out", str(out)) == 0
    return out


class TestTrain:
    def test_train_emits_three_artifacts(self, workdir):
        code = run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "3",
                   "--batch-size", "32", "--out", str(workdir))
        assert code == 0
        assert (workdir / "model.fsnn").exists()
        assert (workdir / "history.csv").exists()
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert manifest["config"]["arch"] == "cnn"
        assert manifest["train_rows"] + manifest["test_rows"] == ROWS
        assert manifest["features"][0] == "Srate"
        assert 0.0 <= manifest["test_metrics"]["accuracy"] <= 1.0
        assert manifest["learning_rate"] == pytest.approx(0.001)
        cache_bytes = (workdir / "dataset.fsds").read_bytes()
        assert manifest["cache_sha256"] == hashlib.sha256(cache_bytes).hexdigest()

    def test_epochs_zero_exit_1(self, workdir, capsys):
        code = run("train", "--arch", "cnn", "--epochs", "0", "--out", str(workdir))
        assert code == 1
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,rate", [((), 0.0001), (("--lr", "0.5"), 0.5)])
    def test_lstm_learning_rate_recorded(self, workdir, flags, rate):
        assert run("train", "--arch", "lstm", "--mode", "binary", "--epochs", "1", *flags,
                   "--out", str(workdir)) == 0
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert manifest["learning_rate"] == pytest.approx(rate)

    @pytest.mark.parametrize("source", ["--lr nan", "--lr inf", '--config {"lr": NaN}'])
    def test_non_finite_learning_rate_exit_1_writes_nothing(self, workdir, capsys, source):
        flag, value = source.split(" ", 1)
        if flag == "--config":
            config = workdir.parent / "run.json"
            config.write_text(value)
            value = str(config)
        code = run("train", "--arch", "cnn", "--epochs", "1", flag, value, "--out", str(workdir))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr must be finite and positive") and err.count("\n") == 1
        for artefact in ("model.fsnn", "history.csv", "manifest.json"):
            assert not (workdir / artefact).exists()

    def test_empty_feature_list_exit_2(self, workdir, capsys):
        assert run("select", "--top-k", "7", "--out", str(workdir)) == 0
        features = workdir / "features.txt"
        features.write_text("")
        code = run("train", "--arch", "cnn", "--epochs", "1", "--out", str(workdir))
        assert code == 2
        assert str(features) in capsys.readouterr().err
        assert not (workdir / "model.fsnn").exists()

    def test_missing_cache_exit_2(self, tmp_path):
        assert run("train", "--arch", "cnn", "--out", str(tmp_path / "void")) == 2

    def test_missing_sidecar_exit_2_writes_nothing(self, workdir, capsys):
        # without its sidecar a cache has no mode or class names to train under
        sidecar = workdir / "dataset.fsds.meta.json"
        sidecar.unlink()
        code = run("train", "--arch", "cnn", "--epochs", "1", "--out", str(workdir))
        assert code == 2
        assert capsys.readouterr().err == f"error: missing cache sidecar {sidecar}\n"
        for artefact in ("model.fsnn", "history.csv", "manifest.json"):
            assert not (workdir / artefact).exists()

    def test_class_with_one_row_exit_2(self, tmp_path, fixture_csv, capsys):
        out = one_row_class_cache(tmp_path, fixture_csv)
        code = run("train", "--arch", "cnn", "--epochs", "1", "--out", str(out))
        assert code == 2
        assert "1 row(s)" in capsys.readouterr().err

    def test_mode_flag_mismatch_exit_5(self, workdir):
        code = run("train", "--arch", "cnn", "--mode", "multi", "--epochs", "1",
                   "--out", str(workdir))
        assert code == 5

    def test_mode_mismatch_before_split_exit_5(self, tmp_path, fixture_csv):
        # the mode check comes before the split that would fail on the one-row class
        out = one_row_class_cache(tmp_path, fixture_csv)
        code = run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "1",
                   "--out", str(out))
        assert code == 5

    def test_identical_invocations_identical_models(self, tmp_path, fixture_csv):
        hashes = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                       "--out", str(out)) == 0
            assert run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "2",
                       "--batch-size", "32", "--seed", "11", "--out", str(out)) == 0
            hashes.append(hash((out / "model.fsnn").read_bytes()))
        assert hashes[0] == hashes[1]

    def test_lstm_rerun_byte_identical(self, tmp_path, fixture_csv):
        # both dropout layers draw masks during training
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                       "--out", str(out)) == 0
            assert run("train", "--arch", "lstm", "--mode", "binary", "--epochs", "2",
                       "--batch-size", "32", "--seed", "5", "--out", str(out)) == 0
            assert load(out / "model.fsnn").spec.dropout_rate > 0
            assert run("evaluate", "--model", str(out / "model.fsnn"), "--out", str(out)) == 0
            digests.append([hashlib.sha256((out / artefact).read_bytes()).hexdigest()
                            for artefact in ("model.fsnn", "metrics.json")])
        assert digests[0] == digests[1]


class TestEvaluateAndPredict:
    @pytest.fixture()
    def trained(self, workdir):
        assert run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "5",
                   "--batch-size", "32", "--out", str(workdir)) == 0
        return workdir

    def test_evaluate_metrics_present(self, trained, capsys):
        code = run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(trained))
        assert code == 0
        metrics = json.loads((trained / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert "Benign" in metrics["per_class"]
        assert "accuracy" in capsys.readouterr().out

    def test_evaluate_repeatable(self, trained):
        assert run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(trained)) == 0
        first = (trained / "metrics.json").read_text()
        assert run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(trained)) == 0
        assert (trained / "metrics.json").read_text() == first

    def test_mode_mismatch_exit_5(self, trained, tmp_path, fixture_csv, capsys):
        other = tmp_path / "multi"
        assert run("ingest", "--data", str(fixture_csv), "--mode", "multi",
                   "--out", str(other)) == 0
        code = run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(other))
        assert code == 5
        err = capsys.readouterr().err
        assert "binary" in err and "multi" in err

    def test_mode_mismatch_before_split_exit_5(self, trained, tmp_path, fixture_csv, capsys):
        # the mode check comes before the split that would fail on the one-row class
        out = one_row_class_cache(tmp_path, fixture_csv)
        code = run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(out))
        assert code == 5
        assert "cache mode 'multi'" in capsys.readouterr().err

    def test_missing_model_exit_2(self, workdir):
        assert run("evaluate", "--model", str(workdir / "ghost.fsnn"), "--out", str(workdir)) == 2

    def test_predict_single_row(self, trained, tmp_path, fixture_csv):
        row = fixture_csv.read_text().strip().split("\n")[:2]
        single = tmp_path / "one.csv"
        single.write_text("\n".join(row) + "\n")
        code = run("predict", "--model", str(trained / "model.fsnn"),
                   "--input", str(single), "--out", str(trained))
        assert code == 0
        lines = (trained / "predictions.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "row_id,predicted_class,confidence"
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[1] in ("Benign", "Attack")
        assert 0.0 <= float(cells[2]) <= 1.0

    def test_predict_missing_feature_exit_3(self, trained, tmp_path, fixture_csv, capsys):
        header, row = fixture_csv.read_text().strip().split("\n")[:2]
        cols = header.split(",")
        keep = [i for i, c in enumerate(cols) if c != "Srate"]
        broken = tmp_path / "broken.csv"
        broken.write_text(
            ",".join(cols[i] for i in keep) + "\n" + ",".join(row.split(",")[i] for i in keep) + "\n"
        )
        code = run("predict", "--model", str(trained / "model.fsnn"),
                   "--input", str(broken), "--out", str(trained))
        assert code == 3
        assert "Srate" in capsys.readouterr().err

    def test_predictions_match_evaluate_predictions(self, trained, tmp_path, fixture_csv):
        # cross-check: the CLI prediction path equals direct model.predict
        model = load(trained / "model.fsnn")
        rows = fixture_csv.read_text().strip().split("\n")
        sample = tmp_path / "sample.csv"
        sample.write_text("\n".join(rows[:21]) + "\n")
        assert run("predict", "--model", str(trained / "model.fsnn"),
                   "--input", str(sample), "--out", str(trained)) == 0
        lines = (trained / "predictions.csv").read_text().strip().split("\n")[1:]
        got = [cells.split(",")[1] for cells in lines]

        header = rows[0].split(",")
        cols = [header.index(f) for f in model.feature_names]
        X = np.array([[float(r.split(",")[c]) for c in cols] for r in rows[1:21]])
        from flowsentinel.data import apply_normalizer

        Xn = apply_normalizer(X, model.normalizer).astype(np.float32)
        direct = [model.class_names[i] for i in model.predict(Xn)]
        assert got == direct

    def test_predict_batch_boundaries_do_not_change_output(self, trained, fixture_csv,
                                                            monkeypatch):
        argv = ("predict", "--model", str(trained / "model.fsnn"), "--input", str(fixture_csv),
                "--out", str(trained))
        assert run(*argv) == 0
        one_batch = (trained / "predictions.csv").read_bytes()
        monkeypatch.setattr(models, "INFERENCE_BATCH_ROWS", 64)  # 600 rows: 9 x 64 + 24
        assert run(*argv) == 0
        assert (trained / "predictions.csv").read_bytes() == one_batch
        row_ids = [line.split(",")[0] for line in one_batch.decode().splitlines()[1:]]
        assert row_ids == [str(i) for i in range(ROWS)]

    def test_predict_model_without_normalizer_exit_3(self, tmp_path, fixture_csv, capsys):
        path = tmp_path / "raw.fsnn"
        save(build(ModelSpec("cnn", ClassificationMode.BINARY), seed=0), path)
        out = tmp_path / "pred"
        code = run("predict", "--model", str(path), "--input", str(fixture_csv), "--out", str(out))
        assert code == 3
        assert "normalizer" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("emptied", ["feature_names", "class_names"])
    def test_predict_model_without_its_lists_exit_3(self, tmp_path, fixture_csv, capsys,
                                                    emptied):
        model = build(ModelSpec("cnn", ClassificationMode.BINARY), seed=0)
        model.normalizer = FeatureStats(minimum=np.zeros(20), maximum=np.ones(20))
        model.feature_names = canonical_top20()
        model.class_names = ["Benign", "Attack"]
        setattr(model, emptied, [])
        path = tmp_path / "bare.fsnn"
        save(model, path)
        out = tmp_path / "pred"
        code = run("predict", "--model", str(path), "--input", str(fixture_csv), "--out", str(out))
        assert code == 3
        assert emptied.split("_")[0] in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_evaluate_scores_the_training_split(self, tmp_path):
        # A 34-class, one-epoch model: accuracy differs between splits, so a
        # re-drawn split cannot match the figures train recorded by chance.
        data = tmp_path / "flows.csv"
        write_fixture_csv(data, rows=5000, seed=3)
        out = tmp_path / "out"
        assert run("ingest", "--data", str(data), "--mode", "multi", "--out", str(out)) == 0
        assert run("train", "--arch", "cnn", "--epochs", "1", "--seed", "7",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert run("evaluate", "--model", str(out / "model.fsnn"), "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] == manifest["test_metrics"]["accuracy"]
        assert metrics["macro"]["f1"] == manifest["test_metrics"]["macro_f1"]
        assert metrics["weighted"]["f1"] == manifest["test_metrics"]["weighted_f1"]
        assert sum(c["support"] for c in metrics["per_class"].values()) == manifest["test_rows"]
        assert run("evaluate", "--model", str(out / "model.fsnn"), "--seed", "7",
                   "--out", str(out)) == 0
        assert run("evaluate", "--model", str(out / "model.fsnn"), "--seed", "8",
                   "--out", str(out)) == 1

    def test_evaluate_refuses_a_cache_the_model_was_not_trained_on(self, trained, fixture_csv,
                                                                   capsys):
        # the same CSV re-ingested at half size: the same mode, other rows
        assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                   "--subsample", "0.5", "--out", str(trained)) == 0
        capsys.readouterr()
        code = run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(trained))
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not the cache the model was trained on" in err
        assert not (trained / "metrics.json").exists()

    def test_evaluate_refuses_a_model_without_a_cache_digest(self, trained, capsys):
        model = load(trained / "model.fsnn")
        model.cache_sha256 = None
        save(model, trained / "model.fsnn")
        code = run("evaluate", "--model", str(trained / "model.fsnn"), "--out", str(trained))
        assert code == 5
        assert "records no dataset cache digest" in capsys.readouterr().err
        assert not (trained / "metrics.json").exists()

    @pytest.mark.parametrize("cell", list(BAD_CELL_REASONS))
    def test_predict_bad_cell_exit_3_writes_nothing(self, trained, tmp_path, fixture_csv,
                                                    capsys, cell):
        model = load(trained / "model.fsnn")
        lines = fixture_csv.read_text().strip().split("\n")[:6]
        header = lines[0].split(",")
        # the model's last feature in the file: a '#' there would end the row
        # early for a tokenizer that reads comments, and the row would parse
        column = max(model.feature_names, key=header.index)
        cells = lines[3].split(",")
        if cell is None:  # a truncated row, short of the feature's column
            cells = cells[:header.index(column)]
        else:
            cells[header.index(column)] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        code = run("predict", "--model", str(trained / "model.fsnn"),
                   "--input", str(bad), "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert f"row_id 2, column {column!r}: {BAD_CELL_REASONS[cell]}" in err
        assert not (out / "predictions.csv").exists()

    def test_closed_stdout_no_traceback(self, trained):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command prints
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "flowsentinel.cli", "evaluate",
                 "--model", str(trained / "model.fsnn"), "--out", str(trained)],
                stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr
        assert (trained / "metrics.json").exists()


@pytest.fixture(scope="module")
def binary_model(tmp_path_factory, fixture_csv):
    out = tmp_path_factory.mktemp("model")
    assert run("ingest", "--data", str(fixture_csv), "--mode", "binary", "--out", str(out)) == 0
    assert run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "2",
               "--batch-size", "32", "--out", str(out)) == 0
    return out / "model.fsnn"


class TestIngestAndPredictAgree:
    """``ingest`` and ``predict`` read flow CSVs through one reader, so a cell
    ingest keeps is classified and a cell ingest drops stops predict with the
    same column and reason."""

    @pytest.mark.parametrize("cell,expected", [
        ("nan", "nan"), ("-Infinity", "inf"), ("inf", "inf"), ("n/a", "non_numeric"),
        ("", "non_numeric"), (" 1_0 ", None), (None, "non_numeric"),
    ])
    def test_cell(self, binary_model, tmp_path, fixture_csv, capsys, cell, expected):
        column = load(binary_model).feature_names[3]
        with open(fixture_csv, newline="") as fh:
            header, *rows = list(csv.reader(fh))[:6]
        # the label goes first, so a row truncated at the feature keeps its label
        order = [header.index(schema.LABEL_COLUMN)] + list(range(len(header) - 1))
        rows = [[r[i] for i in order] for r in [header] + rows]
        at = rows[0].index(column)
        if cell is None:
            rows[3] = rows[3][:at]
        else:
            rows[3][at] = cell
        data = tmp_path / "flows.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

        out = tmp_path / "ingest"
        assert run("ingest", "--data", str(data), "--mode", "binary", "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        reasons = list(report["dropped_by_reason"])
        assert reasons == ([expected] if expected else [])

        pred = tmp_path / "pred"
        code = run("predict", "--model", str(binary_model), "--input", str(data),
                   "--out", str(pred))
        err = capsys.readouterr().err
        if expected:
            assert code == 3
            assert f"row_id 2, column {column!r}: {expected}" in err
            assert not (pred / "predictions.csv").exists()
        else:
            assert code == 0
            X, _, names, _, _ = read_cache(out / "dataset.fsds")
            assert X[2, names.index(column)] == float(cell)
            assert len((pred / "predictions.csv").read_text().strip().split("\n")) == 6


class TestNoTraceback:
    """Inputs of the wrong kind end in a documented exit code and a one-line
    ``error:``, not a Python traceback."""

    @staticmethod
    def not_utf8(tmp_path, fixture_csv):
        path = tmp_path / "latin1.csv"
        path.write_bytes(fixture_csv.read_bytes().replace(b"BenignTraffic", b"B\xe9nign", 1))
        return path

    @pytest.mark.parametrize("case,code", [
        ("predict --input a directory", 2),
        ("predict --model a directory", 2),
        ("predict a file that is not UTF-8", 3),
        ("ingest a file that is not UTF-8", 3),
        ("ingest --out an existing file", 2),
        # config files: the text after --config, written as Latin-1 bytes
        ("ingest --config [1, 2]", 1),
        ('ingest --config {"epochs": "3"}', 1),
        ('ingest --config {"lr": "0.1"}', 1),
        ('ingest --config {"seed": 1.5}', 1),
        ('ingest --config {"epochs": true}', 1),
        ('ingest --config {"top_k": 20.0}', 1),
        ('ingest --config {"subsample": true}', 1),
        ('ingest --config {"recompute_importance": 1}', 1),
        ('ingest --config {"data": ["a.csv", 3]}', 1),
        ('ingest --config {"mode": "caf\xe9"}', 1),  # a byte that is not UTF-8
        # out-of-range training settings; Python's json reads NaN and Infinity
        ('ingest --config {"epochs": 0}', 1),
        ('ingest --config {"batch_size": 0}', 1),
        ('ingest --config {"lr": -1.0}', 1),
        ('ingest --config {"lr": NaN}', 1),
        ('ingest --config {"lr": Infinity}', 1),
        # keys of a fixed split and scaling contract, which no config sets
        ('ingest --config {"split_fraction": 0.9}', 1),
        ('ingest --config {"validation_fraction": 0.2}', 1),
        ('ingest --config {"scheme": "zscore"}', 1),
        ("predict --model a version-1 file", 3),
    ])
    def test_exit_code(self, binary_model, tmp_path, fixture_csv, capsys, case, code):
        model, data, out, config = binary_model, fixture_csv, tmp_path / "out", None
        if "not UTF-8" in case:
            data = self.not_utf8(tmp_path, fixture_csv)
        elif "--config" in case:
            config = tmp_path / "run.json"
            config.write_bytes(case.split("--config ", 1)[1].encode("latin-1"))
        elif "--out" in case:
            out.write_text("")
        elif "--input" in case:
            data = tmp_path
        elif "version-1" in case:
            model = tmp_path / "v1.fsnn"  # the version byte rewritten, the CRC still valid
            payload = bytearray(binary_model.read_bytes()[4:-4])
            payload[0] = 1
            model.write_bytes(b"FSNN" + payload + struct.pack("<I", zlib.crc32(payload)))
        else:
            model = tmp_path
        if case.startswith("ingest"):
            # no --data with a config file, since the flag would override the file's value
            argv = ["ingest", "--config", str(config)] if config else ["ingest", "--data", str(data)]
        else:
            argv = ["predict", "--model", str(model), "--input", str(data)]
        assert run(*argv, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        if "not UTF-8" in case:
            assert str(data) in err and "UTF-8" in err
        if "fraction" in case or "scheme" in case:
            assert "unknown config keys" in err
        if "version-1" in case:
            assert "unsupported version 1" in err
        assert not (out / "predictions.csv").exists() and not (out / "dataset.fsds").exists()

    def test_not_utf8_in_a_process(self, binary_model, tmp_path, fixture_csv):
        data = self.not_utf8(tmp_path, fixture_csv)
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentinel.cli", "predict", "--model", str(binary_model),
             "--input", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {data}: not UTF-8 text (invalid continuation byte)\n"


class TestInspectAndConfig:
    def test_inspect_prints_spec(self, workdir, capsys):
        assert run("train", "--arch", "lstm", "--mode", "binary", "--epochs", "1",
                   "--batch-size", "64", "--out", str(workdir)) == 0
        capsys.readouterr()  # drain the train output
        assert run("inspect", "--model", str(workdir / "model.fsnn")) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["spec"]["architecture"] == "lstm"
        assert info["parameter_count"] == 49985
        assert len(info["features"]) == 20

    def test_config_file_with_flag_override(self, tmp_path, fixture_csv):
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mode": "grouped", "subsample": 1.0, "seed": 4}))
        assert run("ingest", "--config", str(config), "--data", str(fixture_csv),
                   "--out", str(out)) == 0
        meta = json.loads((out / "dataset.fsds.meta.json").read_text())
        assert meta["mode"] == "grouped"  # from config file
        assert meta["seed"] == 4

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modee": "binary"}))
        assert run("ingest", "--config", str(config), "--data", "x.csv",
                   "--out", str(tmp_path)) == 1
        assert "modee" in capsys.readouterr().err

    def test_manifest_replay_reproduces_metrics(self, workdir):
        assert run("train", "--arch", "cnn", "--mode", "binary", "--epochs", "2",
                   "--batch-size", "32", "--seed", "17", "--out", str(workdir)) == 0
        manifest = json.loads((workdir / "manifest.json").read_text())
        model_hash = hash((workdir / "model.fsnn").read_bytes())
        assert run("train", "--config", str(workdir / "manifest.json")) == 0
        replayed = json.loads((workdir / "manifest.json").read_text())
        assert replayed["test_metrics"] == manifest["test_metrics"]
        assert hash((workdir / "model.fsnn").read_bytes()) == model_hash

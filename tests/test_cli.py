"""End-to-end CLI behaviour on a small generated fixture."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import flowsentinel
from flowsentinel import cli, errors, models
from flowsentinel.cli import main
from flowsentinel.data import (
    ClassificationMode,
    apply_normalizer,
    fit_normalizer,
    iter_flows,
    read_cache,
    schema,
    write_cache,
    write_fixture_csv,
)
from flowsentinel.errors import MissingInputError
from flowsentinel.features import canonical_top20, forest
from flowsentinel.models import build, load, save

ROWS = 600  # small but every class keeps >= 2 rows
DROP = object()  # an edit_header value that deletes the field


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
                    "2.0#x": "non_numeric", "1e400": "inf", "1e300": "inf", "-3.5e38": "inf"}


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
        X, y, _, _, meta = read_cache(out / "dataset.fsds")
        assert X.shape[0] == ROWS - 5
        assert meta["mode"] == "multi"

    def test_cell_float32_cannot_hold_dropped_without_warning(self, tmp_path, fixture_csv):
        lines = fixture_csv.read_text().strip().split("\n")
        at = lines[0].split(",").index("Duration")
        cells = lines[4].split(",")
        cells[at] = "1e300"
        lines[4] = ",".join(cells)
        data = tmp_path / "flows.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a cast to float32
            assert run("ingest", "--data", str(data), "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["dropped_by_reason"] == {"inf": 1}
        X, _, _, _, _ = read_cache(out / "dataset.fsds")
        assert X.shape[0] == ROWS - 1 and np.isfinite(X).all()

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
            raise MissingInputError("a tree without rows")

        monkeypatch.setattr(forest, "usable_cpus", lambda: 2)  # a pool on any host
        monkeypatch.setattr(forest, "grow_tree", grow)
        code = run("select", "--recompute-importance", "--out", str(workdir))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: a tree without rows"
        assert not (workdir / "importance.csv").exists()
        assert multiprocessing.active_children() == []

    def test_recompute_constant_target_exit_2_writes_nothing(self, tmp_path, fixture_csv,
                                                             capsys):
        # a cache of one class: no tree splits, so no ranking is written
        header, *rows = fixture_csv.read_text().strip().split("\n")
        label = rows[0].rsplit(",", 1)[1]
        data = tmp_path / "one-class.csv"
        data.write_text("\n".join([header] + [r for r in rows if r.endswith("," + label)]) + "\n")
        out = tmp_path / "out"
        assert run("ingest", "--data", str(data), "--mode", "multi", "--out", str(out)) == 0
        assert run("select", "--recompute-importance", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "target is constant" in err and "without --recompute-importance" in err
        assert not (out / "features.txt").exists()
        assert not (out / "importance.csv").exists()

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

    @pytest.mark.parametrize("arch,top_k,code", [
        ("cnn", 1, 1),  # conv0's output: 1 - 3 + 1 = -1 steps
        ("cnn", 9, 1),  # 9 -> 7 -> 3 -> 1, and pool1 leaves 0 steps
        ("cnn", 10, 0),  # 10 -> 8 -> 4 -> 2 -> 1
        ("lstm", 1, 0),  # a one-step sequence
    ])
    def test_top_k_trains_unless_the_cnn_collapses(self, workdir, capsys, arch, top_k,
                                                     code):
        # build is the one guard on every layer's input length
        assert run("select", "--top-k", str(top_k), "--out", str(workdir)) == 0
        capsys.readouterr()
        assert run("train", "--arch", arch, "--epochs", "1", "--out", str(workdir)) == code
        assert (workdir / "model.fsnn").exists() == (code == 0)
        if code:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "collapsed" in err and err.count("\n") == 1

    def test_missing_cache_exit_2(self, tmp_path):
        assert run("train", "--arch", "cnn", "--out", str(tmp_path / "void")) == 2

    def test_missing_sidecar_exit_2_writes_nothing(self, workdir):
        # without its sidecar a cache has no mode or class names to train under;
        # test_missing_file_exit_2_names_it checks the message
        (workdir / "dataset.fsds.meta.json").unlink()
        code = run("train", "--arch", "cnn", "--epochs", "1", "--out", str(workdir))
        assert code == 2
        for artefact in ("model.fsnn", "history.csv", "manifest.json"):
            assert not (workdir / artefact).exists()

    def test_train_and_evaluate_read_the_sidecar_once(self, workdir, monkeypatch):
        reads, read_text = [], Path.read_text

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        sidecar = workdir / "dataset.fsds.meta.json"
        for argv in (("train", "--epochs", "1"), ("evaluate", "--model", str(workdir / "model.fsnn"))):
            reads.clear()
            assert run(*argv, "--out", str(workdir)) == 0
            assert reads.count(sidecar) == 1

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
        Xn = apply_normalizer(X, model.normalizer)
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

    def test_predict_holds_its_input_as_float32_only(self, binary_model, tmp_path):
        # the float32 blocks and their concatenation are twice the float32
        # input; a float64 copy of the input would alone be twice it again
        rows = 30_000
        data = tmp_path / "flows.csv"
        write_fixture_csv(data, rows=rows, seed=5)
        tracemalloc.start()
        try:
            code = run("predict", "--model", str(binary_model), "--input", str(data),
                       "--out", str(tmp_path / "pred"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        float32_input = rows * len(load(binary_model).feature_names) * 4
        assert peak < 3 * float32_input, f"peak {peak / 1e6:.1f} MB"

    def test_predict_quotes_class_names_as_csv_writer_does(self, tmp_path, fixture_csv):
        mode = ClassificationMode.GROUPED
        model = build("cnn", mode, canonical_top20(), seed=0)
        X = np.concatenate([X for X, _, _ in iter_flows(fixture_csv, model.feature_names)])
        model.normalizer = fit_normalizer(X)
        # the untrained model predicts classes 2, 3 and 4 for this input
        model.class_names = ["Spoof,ARP", '"', 'say "hi", ok', "line\nbreak", "cr\r", ",", " x", ""]
        model.cache_sha256 = "0f" * 32
        path = tmp_path / "tricky.fsnn"
        save(model, path)
        out = tmp_path / "pred"
        assert run("predict", "--model", str(path), "--input", str(fixture_csv),
                   "--out", str(out)) == 0

        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["row_id", "predicted_class", "confidence"])
        for start, probs in model.batches(apply_normalizer(X, model.normalizer)):
            classes, confidences = model.decide(probs)
            writer.writerows([start + i, model.class_names[int(klass)], f"{conf:.6f}"]
                             for i, (klass, conf) in enumerate(zip(classes, confidences)))
        got = (out / "predictions.csv").read_bytes()
        assert got == expected.getvalue().encode("utf-8")
        predicted = {row[1] for row in csv.reader(io.StringIO(got.decode(), newline=""))}
        assert {'say "hi", ok', "line\nbreak", "cr\r"} < predicted

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

    def test_predict_stops_reading_at_the_first_bad_row(self, trained, tmp_path, fixture_csv,
                                                        capsys):
        # a NaN on data row 3 and a byte that is not UTF-8 on line 3,000: predict
        # refuses the NaN's block before its read reaches the byte
        header, *rows = fixture_csv.read_text().strip().split("\n")
        lines = [header] + rows * 5
        at = header.split(",").index("Srate")
        cells = lines[3].split(",")
        cells[at] = "nan"
        lines[3] = ",".join(cells)
        data = [line.encode() for line in lines]
        data[2999] += b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(data) + b"\n")
        out = tmp_path / "pred"
        code = run("predict", "--model", str(trained / "model.fsnn"), "--input", str(bad),
                   "--out", str(out))
        assert code == 3
        assert "row_id 2, column 'Srate': nan" in capsys.readouterr().err
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
        ("nan", "nan"), ("-Infinity", "inf"), ("inf", "inf"), ("1e300", "inf"),
        ("-3.5e38", "inf"), ("3.4e38", None), ("n/a", "non_numeric"),
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
        # flags that RunConfig.validate refuses, as it refuses the same config value
        ("train --mode foo", 1),
        ("train --arch rnn", 1),
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
        elif case.startswith("train"):
            argv = case.split()
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
        if case.startswith("train"):
            assert repr(case.split()[-1]) in err
        assert not (out / "predictions.csv").exists() and not (out / "dataset.fsds").exists()

    SIDECAR = "dataset.fsds.meta.json"

    @pytest.mark.parametrize("argv,lost", [
        (("select", "--recompute-importance"), "dataset.fsds"),
        (("train",), "dataset.fsds"),
        (("evaluate", "--model", "{model}"), "dataset.fsds"),
        (("evaluate", "--model", "{missing}"), "ghost"),
        (("predict", "--model", "{missing}", "--input", "{data}"), "ghost"),
        (("predict", "--model", "{model}", "--input", "{missing}"), "ghost"),
        (("inspect", "--model", "{missing}"), "ghost"),
        (("select", "--recompute-importance"), SIDECAR),
        (("train",), SIDECAR),
        (("evaluate", "--model", "{model}"), SIDECAR),
    ], ids=["select-cache", "train-cache", "evaluate-cache", "evaluate-model", "predict-model",
            "predict-input", "inspect-model", "select-sidecar", "train-sidecar",
            "evaluate-sidecar"])
    def test_missing_file_exit_2_names_it(self, binary_model, tmp_path, fixture_csv, capsys,
                                          argv, lost):
        # the reader of each file reports it missing; no command checks first
        missing = expected = tmp_path / lost
        if lost == self.SIDECAR:  # a cache that lost its sidecar
            assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                       "--out", str(tmp_path)) == 0
            expected.unlink()
            capsys.readouterr()
        fill = {"model": binary_model, "missing": missing, "data": fixture_csv}
        argv = [arg.format(**fill) for arg in argv]
        if argv[0] != "inspect":
            argv += ["--out", str(tmp_path)]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{expected}'\n"

    @staticmethod
    def edit_header(source, target, field, value):
        """``source`` saved as ``target`` with one header field (a dotted path,
        or None for the whole header) set to ``value``, or deleted when
        ``value`` is ``DROP``, or with ``value`` as its version byte when
        ``field`` is "version", under a valid CRC."""
        payload = source.read_bytes()[4:-4]
        (length,) = struct.unpack_from("<I", payload, 1)
        header = json.loads(payload[5:5 + length])
        if field == "version":
            payload = bytes([value]) + payload[1:]
        elif field is None:
            header = value
        else:
            *parents, key = field.split(".")
            node = header
            for name in parents:
                node = node[name]
            if value is DROP:
                del node[key]
            else:
                node[key] = value
        raw = json.dumps(header).encode("utf-8")
        payload = payload[:1] + struct.pack("<I", len(raw)) + raw + payload[5 + length:]
        target.write_bytes(b"FSNN" + payload + struct.pack("<I", zlib.crc32(payload)))

    @pytest.mark.parametrize("field,value", [
        ("normalizer", {"min": [0.0] * 19, "max": [1.0] * 19}),
        ("normalizer.min", [float("nan")] * 20),
        ("normalizer.max", [-1.0] * 20),  # below the minima
        ("normalizer", "x"),
        ("mode", "weird"),
        ("architecture", "rnn"),
        ("features", []),
        ("classes", ["Benign", "Benign"]),  # predict would label every row with one name
        ("features", 5),
        ("seed", "abc"),
        ("cache_sha256", 5),
        (None, [1, 2]),
        ("features", list(range(20))),
        ("classes", [0, 1]),
        ("seed", 1.5),
        ("seed", True),
        ("seed", DROP),
        # a header that train would not write: each field dropped or null, and
        # lists that do not fit the mode or the normalizer
        *[(field, value) for field in ("normalizer", "features", "classes", "cache_sha256")
          for value in (DROP, None)],
        ("features", canonical_top20()[:19]),
        ("classes", ["Benign"]),
        ("classes", ["Benign", "Attack", "Other"]),
        ("version", 2),  # the format before the header wrote each fact once
    ])
    def test_malformed_model_header_exit_3(self, binary_model, tmp_path, fixture_csv, capsys,
                                           field, value):
        model = tmp_path / "edited.fsnn"
        self.edit_header(binary_model, model, field, value)
        out = tmp_path / "out"
        assert run("predict", "--model", str(model), "--input", str(fixture_csv),
                   "--out", str(out)) == 3
        assert run("evaluate", "--model", str(model), "--out", str(out)) == 3
        assert run("inspect", "--model", str(model)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and all(ln.startswith(f"error: {model}: ") for ln in lines)
        if value is DROP or value is None or field in ("features", "classes"):
            assert all(field in ln for ln in lines)
        if field == "version":
            assert all(ln.endswith(": unsupported version 2") for ln in lines)
        assert not (out / "predictions.csv").exists() and not (out / "metrics.json").exists()

    def test_lstm_header_narrower_than_its_normalizer_exit_3(self, tmp_path, fixture_csv,
                                                              capsys):
        # an LSTM's parameters do not depend on its input width, so only the
        # normalizer's width refuses a header of 19 features; built, not trained
        model = build("lstm", ClassificationMode.BINARY, canonical_top20(), seed=0)
        model.class_names = ["Benign", "Attack"]
        model.normalizer = fit_normalizer(np.eye(20))
        model.cache_sha256 = "0f" * 32
        source, edited, out = tmp_path / "lstm.fsnn", tmp_path / "edited.fsnn", tmp_path / "out"
        save(model, source)
        self.edit_header(source, edited, "features", canonical_top20()[:19])
        assert run("predict", "--model", str(edited), "--input", str(fixture_csv),
                   "--out", str(out)) == 3
        assert run("evaluate", "--model", str(edited), "--out", str(out)) == 3
        assert run("inspect", "--model", str(edited)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {edited}: normalizer does not have 19 features"] * 3
        assert not (out / "predictions.csv").exists() and not (out / "metrics.json").exists()

    TRAIN, SELECT = ("train", "--epochs", "1"), ("select", "--recompute-importance")
    EVALUATE = ("evaluate", "--model", "{model}")
    READERS = (TRAIN, SELECT, EVALUATE)  # every command that reads the cache

    @pytest.mark.parametrize("sidecar,commands", [
        ("{not json", (TRAIN, SELECT)),
        (b'{"mode": "caf\xe9"}', (TRAIN, SELECT)),  # a byte that is not UTF-8
        ("[1, 2]", (TRAIN, SELECT)),
        ({"mode": "weird"}, (TRAIN, ("train", "--mode", "binary", "--epochs", "1"), SELECT,
                             EVALUATE)),
        ({"mode": None}, READERS),  # no mode
        ({"classes": ["Benign", "Attack", "Other"]}, READERS),
        ({"classes": None}, READERS),
        ({"classes": [1, 2]}, READERS),
        ({"classes": ["Attack", "Benign"]}, READERS),  # binary's two names, out of order
    ])
    def test_malformed_sidecar_exit_3(self, workdir, binary_model, capsys, sidecar, commands):
        path = workdir / "dataset.fsds.meta.json"
        if isinstance(sidecar, dict):  # edits of the ingested sidecar; None drops a key
            meta = {**json.loads(path.read_text()), **sidecar}
            sidecar = json.dumps({key: value for key, value in meta.items() if value is not None})
        path.write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
        for command in commands:
            argv = [arg.format(model=binary_model) for arg in command]
            assert run(*argv, "--out", str(workdir)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(commands)
        assert all(ln.startswith(f"error: {path}: ") for ln in lines)
        for artefact in ("model.fsnn", "history.csv", "manifest.json", "features.txt",
                         "importance.csv", "metrics.json"):
            assert not (workdir / artefact).exists()

    @pytest.mark.parametrize("fault", ["class-index", "nan", "inf"])
    def test_cache_contents_ingest_never_writes_exit_3(self, workdir, binary_model, capsys,
                                                        fault):
        # a cache rewritten by write_cache, so its layout and sidecar are sound
        path = workdir / "dataset.fsds"
        X, y, names, _, meta = read_cache(path)
        X, y = X.copy(), y.copy()
        if fault == "class-index":
            y[5] = 7  # a binary cache has classes 0 and 1
        else:
            X[5, names.index(canonical_top20()[0])] = float(fault)
        write_cache(path, X, y, names, meta=meta)
        before = sorted(workdir.iterdir())
        for command in self.READERS:
            argv = [arg.format(model=binary_model) for arg in command]
            assert run(*argv, "--out", str(workdir)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(self.READERS)
        assert all(ln.startswith(f"error: {path}: ") for ln in lines)
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_model_parameter_exit_3(self, binary_model, tmp_path, fixture_csv,
                                               capsys, value):
        model = load(binary_model)
        model.layers[-1].weight.value[0, 0] = value
        path = tmp_path / "edited.fsnn"
        save(model, path)  # under a valid CRC, as train never writes it
        out = tmp_path / "out"  # a cache that evaluate would score the model on
        assert run("ingest", "--data", str(fixture_csv), "--mode", "binary",
                   "--out", str(out)) == 0
        capsys.readouterr()
        before = sorted(out.iterdir())
        assert run("predict", "--model", str(path), "--input", str(fixture_csv),
                   "--out", str(out)) == 3
        assert run("evaluate", "--model", str(path), "--out", str(out)) == 3
        assert run("inspect", "--model", str(path)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert all(ln == f"error: {path}: parameter 'head/W' holds a NaN or infinite value"
                   for ln in lines)
        assert sorted(out.iterdir()) == before

    def test_not_utf8_in_a_process(self, binary_model, tmp_path, fixture_csv):
        data = self.not_utf8(tmp_path, fixture_csv)
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentinel.cli", "predict", "--model", str(binary_model),
             "--input", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {data}: not UTF-8 text (invalid continuation byte)\n"


class TestExitCodes:
    """Each error class carries its documented exit code, and ``main`` returns it."""

    DOCUMENTED = {
        errors.ConfigError: 1, errors.MissingInputError: 2, errors.SchemaError: 3,
        errors.NumericError: 4, errors.MismatchError: 5,
    }
    OS_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError)  # exit 2
    # raised only on a programming error, never by a bad input
    INTERNAL = (errors.ShapeMismatchError, errors.MissingCacheError)
    # The failure kinds each class carries, under the names of the classes that
    # raised them before they were merged into it; no such name is kept.
    MERGED = {
        "InvalidSpecError": errors.ConfigError,
        "EmptyInputError": errors.MissingInputError,
        "ClassTooSmallError": errors.MissingInputError,
        "DegenerateImportanceError": errors.MissingInputError,
        "MissingColumnError": errors.SchemaError,
        "InputEncodingError": errors.SchemaError,
        "InvalidRowError": errors.SchemaError,
        "CorruptCacheError": errors.SchemaError,
        "CorruptModelError": errors.SchemaError,
        "NonFiniteLossError": errors.NumericError,
        "NonFiniteGradientError": errors.NumericError,
        "ModeMismatchError": errors.MismatchError,
        "CacheMismatchError": errors.MismatchError,
    }
    CASES = {**{cls.__name__: cls for cls in (*DOCUMENTED, *OS_ERRORS)}, **MERGED}

    def test_every_error_class_is_listed(self):
        found, stack = set(), [errors.FlowSentinelError]
        while stack:
            for cls in stack.pop().__subclasses__():
                found.add(cls)
                stack.append(cls)
        codes = {cls: cls.exit_code for cls in found}
        assert codes == {**self.DOCUMENTED, **dict.fromkeys(self.INTERNAL)}

    @staticmethod
    def inspect_raising(monkeypatch, error):
        def fail(model_path):
            raise error("bad")

        monkeypatch.setattr(cli, "cmd_inspect", fail)
        return run("inspect", "--model", "m.fsnn")

    @pytest.mark.parametrize("name", CASES)
    def test_main_returns_the_documented_code(self, monkeypatch, capsys, name):
        error = self.CASES[name]
        assert name == error.__name__ or not hasattr(errors, name)
        assert self.inspect_raising(monkeypatch, error) == self.DOCUMENTED.get(error, 2)
        assert capsys.readouterr().err == "error: bad\n"

    @pytest.mark.parametrize("error", INTERNAL, ids=lambda cls: cls.__name__)
    def test_internal_error_propagates(self, monkeypatch, capsys, error):
        with pytest.raises(error, match="^bad$"):
            self.inspect_raising(monkeypatch, error)
        assert capsys.readouterr().err == ""


class TestInspectAndConfig:
    def test_inspect_prints_spec(self, workdir, capsys):
        assert run("train", "--arch", "lstm", "--mode", "binary", "--epochs", "1",
                   "--batch-size", "64", "--out", str(workdir)) == 0
        capsys.readouterr()  # drain the train output
        assert run("inspect", "--model", str(workdir / "model.fsnn")) == 0
        info = json.loads(capsys.readouterr().out)
        assert sorted(info) == ["architecture", "cache_sha256", "classes", "features", "mode",
                                "normalizer", "parameter_count", "seed"]
        assert (info["architecture"], info["mode"]) == ("lstm", "binary")
        assert info["parameter_count"] == 49985
        assert info["features"] == canonical_top20()
        assert info["classes"] == ["Benign", "Attack"]

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


# a child's program: pin the thresholds, then print the minor page faults per
# multi-mode LSTM train step at a batch of 32, over 20 steps after 10 warm-up steps
TRAIN_STEP_FAULTS = """if True:
    import resource
    import numpy as np
    from flowsentinel.cli import pin_malloc_thresholds
    from flowsentinel.data import ClassificationMode
    from flowsentinel.models import build
    from flowsentinel.nn.adam import Adam
    from flowsentinel.nn.losses import sparse_categorical_logit_grad
    pin_malloc_thresholds()
    model = build("lstm", ClassificationMode.MULTI, [f"f{i}" for i in range(20)], seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    X = rng.random((32, 20), dtype=np.float32)
    y = rng.integers(0, ClassificationMode.MULTI.class_count, 32)
    def step():
        optimizer.zero_grad()
        probs = model.forward(X, training=True)
        model.backward_from_logits(sparse_categorical_logit_grad(probs, y))
        optimizer.step()
    for _ in range(10):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_pinned_malloc_thresholds_keep_train_steps_off_fresh_pages():
    # glibc's own rule hands each step's freed buffers back to the kernel, and
    # the loop then faults about 900 pages per step in again
    proc = subprocess.run([sys.executable, "-c", TRAIN_STEP_FAULTS], capture_output=True,
                          text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10

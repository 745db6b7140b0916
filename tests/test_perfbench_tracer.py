"""The traced benchmark run patches pipeline functions by name in
``flowsentinel.cli``; this pins the names and counters it reads, so a rename
fails here rather than in ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

from flowsentinel import cli
from flowsentinel.data import write_fixture_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_ingest_records_rows_and_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    data = tmp_path / "flows.csv"
    write_fixture_csv(data, rows=200, seed=4)
    lines = data.read_text().splitlines()
    lines[5] = "n/a" + lines[5][lines[5].index(","):]  # one malformed row
    data.write_text("\n".join(lines) + "\n")

    with tracer.installed():
        op = tracer.open("cli.ingest", new_op=True)
        code = cli.main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")])
        tracer.close(op)
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["data.ingest.rows_read"] == 200
    assert metrics["data.ingest.rows_dropped"] == 1
    spans = {name for name, *_ in tracer.spans}
    assert {"data.ingest.load_csv", "data.labels.map_labels", "data.cache.write"} <= spans
    assert tracer.consistency_problems() == []


def test_traced_select_counts_forest_trees_and_nodes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    data = tmp_path / "flows.csv"
    write_fixture_csv(data, rows=600, seed=4)
    out = tmp_path / "out"
    assert cli.main(["ingest", "--data", str(data), "--out", str(out)]) == 0

    with tracer.installed():
        op = tracer.open("cli.select", new_op=True)
        code = cli.main(["select", "--recompute-importance", "--out", str(out)])
        tracer.close(op)
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["features.forest.trees"] == 100
    assert metrics["features.forest.nodes"] > 100
    spans = {name for name, *_ in tracer.spans}
    assert {"features.forest.fit", "features.forest.importance"} <= spans
    assert tracer.consistency_problems() == []


def test_traced_lstm_train_evaluate_predict_names_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    data = tmp_path / "flows.csv"
    write_fixture_csv(data, rows=600, seed=4)
    out = tmp_path / "out"
    assert cli.main(["ingest", "--data", str(data), "--mode", "binary", "--out", str(out)]) == 0
    model = str(out / "model.fsnn")
    ops = [
        ("cli.train", ["train", "--arch", "lstm", "--epochs", "1", "--out", str(out)]),
        ("cli.evaluate", ["evaluate", "--model", model, "--out", str(out)]),
        ("cli.predict", ["predict", "--model", model, "--input", str(data), "--out", str(out)]),
    ]

    with tracer.installed():
        codes = []
        for name, argv in ops:
            op = tracer.open(name, new_op=True)
            codes.append(cli.main(argv))
            tracer.close(op)
    assert codes == [0, 0, 0]
    spans = {name for name, *_ in tracer.spans}
    assert {"training.train", "training.evaluate", "models.forward", "models.predict",
            "nn.lstm0.forward", "nn.lstm1.forward", "nn.head.forward"} <= spans
    assert tracer.consistency_problems() == []

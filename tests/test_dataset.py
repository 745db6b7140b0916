"""Ingestion, vocabularies, subsampling, splits, normalization, cache format."""

import csv
import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest

from flowsentinel.data import (
    ClassificationMode,
    apply_normalizer,
    build_vocabulary,
    csv_cell,
    fit_normalizer,
    generate_fixture,
    iter_flows,
    load_csv,
    map_labels,
    read_cache,
    schema,
    stratified_split,
    subsample_indices,
    write_cache,
    write_fixture_csv,
)
from flowsentinel.errors import MissingInputError, SchemaError
from flowsentinel.data import ingest
from flowsentinel.models import build
from flowsentinel.rng import Rng

from conftest import FEATURES

HEADER = ",".join(list(schema.FEATURE_COLUMNS) + [schema.LABEL_COLUMN])
# the sidecar of a multi-mode cache, as ingest writes it
MULTI_META = {"mode": "multi", "classes": list(build_vocabulary(ClassificationMode.MULTI).classes)}


def write_rows(path, rows):
    path.write_text(HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def make_row(value=1.0, label="BenignTraffic", override=None):
    cells = {name: str(value) for name in schema.FEATURE_COLUMNS}
    if override:
        cells.update(override)
    return ",".join([cells[name] for name in schema.FEATURE_COLUMNS] + [label])


FEATURES = list(schema.FEATURE_COLUMNS)


def cell(X, row, name):
    return X[row, FEATURES.index(name)]


class TestLoadCsv:
    def test_header_only_file(self, tmp_path):
        p = write_rows(tmp_path / "empty.csv", [])
        (X, labels), report = load_csv([p])
        assert X.shape == (0, len(FEATURES))
        assert labels == []
        assert report.rows_read == 0
        assert report.empty_input

    def test_nan_rows_dropped_and_counted(self, tmp_path):
        rows = [make_row(1.0), make_row(override={"Rate": "NaN"}), make_row(2.0)]
        p = write_rows(tmp_path / "d.csv", rows)
        (X, labels), report = load_csv([p])
        assert len(X) == len(labels) == 2
        assert report.dropped == {"nan": 1}
        assert report.rows_read == 3

    def test_inf_and_garbage_dropped(self, tmp_path):
        rows = [
            make_row(override={"Srate": "Inf"}),
            make_row(override={"IAT": "-inf"}),
            make_row(override={"Max": "oops"}),
            make_row(3.0),
        ]
        p = write_rows(tmp_path / "d.csv", rows)
        (X, labels), report = load_csv([p])
        assert len(X) == len(labels) == 1
        assert report.dropped == {"inf": 2, "non_numeric": 1}

    def test_cells_float32_cannot_hold_are_inf(self, tmp_path):
        rows = [make_row(override={"Duration": "1e300"}), make_row(2.0),
                make_row(override={"Rate": "-3.5e38"}), make_row(3.0)]
        (X, labels), report = load_csv([write_rows(tmp_path / "d.csv", rows)])
        assert report.dropped == {"inf": 2}
        assert np.isfinite(X).all() and X[:, 0].tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("tokenizer", [True, False])
    def test_float32_overflow_boundary(self, tmp_path, monkeypatch, tokenizer):
        # 2**128 - 2**103 is the smallest float64 that rounds to float32 inf;
        # the float64 below it rounds to float32's max and is kept
        limit = 2.0**128 - 2.0**103
        below = float(np.nextafter(limit, 0))
        with np.errstate(over="ignore"):
            as_f32 = np.array([limit, below]).astype(np.float32)
        assert np.isinf(as_f32[0]) and as_f32[1] == np.finfo(np.float32).max
        assert ingest.parse_value(repr(limit)) == (None, "inf")
        assert ingest.parse_value(repr(-below)) == (-below, None)
        if not tokenizer:
            monkeypatch.setattr(ingest, "_tokenized", lambda lines, usecols: None)
        rows = [make_row(override={"Max": repr(v)}) for v in (limit, below, -limit, -below)]
        (X, _), report = load_csv([write_rows(tmp_path / "d.csv", rows)])
        assert report.dropped == {"inf": 2}
        assert cell(X, 0, "Max") == as_f32[1] and cell(X, 1, "Max") == -as_f32[1]

    def test_three_row_fixture_round_trip(self, tmp_path):
        rows = [
            make_row(override={"Srate": "10.5", "Rate": "20.25"}, label="DDoS-ICMP_Flood"),
            make_row(override={"Srate": "0.125"}, label="BenignTraffic"),
            make_row(override={"Srate": "7"}, label="DoS-UDP_Flood"),
        ]
        p = write_rows(tmp_path / "d.csv", rows)
        (X, labels), report = load_csv([p])
        assert X.shape == (3, len(FEATURES)) and X.dtype == np.float32
        assert cell(X, 0, "Srate") == 10.5
        assert cell(X, 0, "Rate") == 20.25
        assert cell(X, 1, "Srate") == 0.125
        assert labels[0] == "DDoS-ICMP_Flood"
        assert report.label_histogram["BenignTraffic"] == 1

    def test_column_order_independence(self, tmp_path):
        reordered = list(schema.FEATURE_COLUMNS)[::-1]
        header = ",".join([schema.LABEL_COLUMN] + reordered)
        cells = {name: "1" for name in schema.FEATURE_COLUMNS}
        cells["Weight"] = "42"
        row = ",".join(["BenignTraffic"] + [cells[n] for n in reordered])
        p = tmp_path / "r.csv"
        p.write_text(header + "\n" + row + "\n", encoding="utf-8")
        (X, _), _ = load_csv([p])
        assert cell(X, 0, "Weight") == 42.0

    def test_missing_column_named(self, tmp_path):
        cols = [c for c in schema.FEATURE_COLUMNS if c != "Srate"]
        header = ",".join(cols + [schema.LABEL_COLUMN])
        p = tmp_path / "m.csv"
        p.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_csv([p])
        assert "Srate" in str(exc.value)

    def test_no_paths_rejected(self):
        with pytest.raises(MissingInputError):
            load_csv([])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv([tmp_path / "nope.csv"])

    def test_multiple_files_keep_order(self, tmp_path):
        a = write_rows(tmp_path / "a.csv", [make_row(override={"Weight": "1"})])
        b = write_rows(tmp_path / "b.csv", [make_row(override={"Weight": "2"})])
        (X, _), report = load_csv([a, b])
        assert X[:, FEATURES.index("Weight")].tolist() == [1.0, 2.0]
        assert report.files == [str(a), str(b)]

    def test_one_label_object_per_distinct_label(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_fixture_csv(path, rows=2_000, seed=1)
        (_, labels), report = load_csv([path, path])
        assert len(labels) == 4_000
        assert len({id(label) for label in labels}) == len(report.label_histogram) == 34

    def test_bad_rows_across_blocks_and_files(self, tmp_path):
        # bad rows on data lines 63-65 of each file (across the first block
        # boundary) and in the second file's second block: iter_flows gives
        # file-relative row ids, and load_csv keeps exactly the good rows
        assert ingest.CHUNK_ROWS == 64
        rows = 2 * ingest.CHUNK_ROWS + 10
        paths, good = [], []
        for k, extra in enumerate(([], [100])):
            lines = [make_row(override={"Weight": str(1000 * k + i)}) for i in range(rows)]
            lines[62] = make_row(override={"Rate": "nan"})
            lines[63] = make_row(override={"Max": "x"})
            lines[64] = make_row(label="")
            for i in extra:
                lines[i] = make_row(override={"Srate": "1e39"})
            paths.append(write_rows(tmp_path / f"{k}.csv", lines))
            good += [line.split(",") for i, line in enumerate(lines)
                     if i not in (62, 63, 64, *extra)]
        blocks = [[(len(X), [row_id for row_id, _, _ in bad])
                   for X, _, bad in iter_flows(p, FEATURES, schema.LABEL_COLUMN)] for p in paths]
        assert blocks == [[(64, [62, 63]), (64, [64]), (10, [])],
                          [(64, [62, 63]), (64, [64, 100]), (10, [])]]

        (X, labels), report = load_csv(paths)
        assert X.tobytes() == np.array([[float(v) for v in cells[:-1]] for cells in good],
                                       dtype=np.float32).tobytes()
        assert labels == [cells[-1] for cells in good]
        assert report.dropped == {"nan": 2, "non_numeric": 2, "empty_label": 2, "inf": 1}
        assert cell(X, slice(None), "Weight").tolist() == (
            [i for i in range(rows) if i not in (62, 63, 64)]
            + [1000 + i for i in range(rows) if i not in (62, 63, 64, 100)])

    def test_peak_memory_stays_below_the_float64_input(self, tmp_path):
        # blocks are cast to float32 as they are read (tracemalloc sees
        # numpy's buffers); 20,000 rows of 46 float64 columns are 7.4 MB
        path = tmp_path / "flows.csv"
        write_fixture_csv(path, rows=20_000, seed=1)
        tracemalloc.start()
        try:
            (X, _), _ = load_csv([path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.dtype == np.float32 and len(X) == 20_000
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("chunk_rows", [1, 3, ingest.CHUNK_ROWS])
    def test_read_flows_names_the_first_bad_cell(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)  # row ids run across chunks
        rows = [
            make_row(override={"Max": "x", "Rate": "nan"}, label=""),  # the label comes first
            "",  # a blank line is no row
            make_row(override={"Max": "x", "Rate": "nan"}),  # then schema order
            make_row(override={"Srate": " 1_0 "}, label="  XSS "),
            ",".join(make_row().split(",")[:3]),  # a short row
        ]
        p = write_rows(tmp_path / "d.csv", rows)
        blocks = list(iter_flows(p, ["Srate", "Rate", "Max"], schema.LABEL_COLUMN))
        X = np.concatenate([X for X, _, _ in blocks])
        assert X.shape == (4, 3)
        assert X[2].tolist() == [10.0, 1.0, 1.0]
        assert [label for _, labels, _ in blocks for label in labels] == [
            "", "BenignTraffic", "XSS", ""]
        assert [row for _, _, bad in blocks for row in bad] == [
            (0, "label", "empty_label"), (1, "Rate", "nan"), (3, "label", "empty_label")]
        blocks = list(iter_flows(p, ["Max", "Rate"]))
        assert all(labels is None for _, labels, _ in blocks)
        assert [row for _, _, bad in blocks for row in bad] == [
            (0, "Max", "non_numeric"), (1, "Max", "non_numeric"), (3, "Max", "non_numeric")]


# Cells numpy's tokenizer reads as float() does, and cells it rejects, some
# of which float() accepts.
READ_CELLS = ["\xa01.5", "-Infinity", "1e400", "1e-400", "nan", "-nan", " 2.5 ", "7"]
REJECTED_CELLS = ["1_000", "\u0661\u0662", "2.0#x", "0x10", "1d5", "nan(1)", "", "   ", "1.5 2",
                  "\x1c1"]


def edge_corpus(header, quoted):
    """Flow-CSV text over ``header``: runs of lines the tokenizer reads (edge
    cells, empty labels, long rows, blank lines) longer than a default block,
    around rejected cells, short rows and whitespace-only lines, with all
    three line ends; ``quoted`` adds quoted cells, one holding a comma and a
    newline, before the last run."""
    def row(label="XSS", **cells):
        values = {name: f"{k}.25" for k, name in enumerate(header)}
        values.update(cells, label=label)
        return ",".join(values[name] for name in header)

    def rows(cells):
        return [row(**{("Rate", "Max", "Srate")[k % 3]: text}, label=f" DoS-{k} ")
                for k, text in enumerate(cells)]

    read = rows(READ_CELLS) + [row(label=""), row(label="   "), row() + ",9,x", "", "", ""]
    rejected = rows(REJECTED_CELLS) + ["   ", "\t"]
    rejected += [row().rsplit(",", cut)[0] for cut in range(1, len(header))]  # short rows
    tail = [row(Rate='"1.5"'), row(label='"a,\nb"')] if quoted else []
    lines = read * 6 + rejected + read * 6 + tail + read * 2
    ends = ["\n", "\r", "\r\n"]  # so that no blank line merges into the line before it
    return ",".join(header) + "\n" + "".join(line + ends[k % 3] for k, line in enumerate(lines))


@pytest.mark.parametrize("chunk_rows", [1, 3, ingest.CHUNK_ROWS])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("header", [["id", "Rate", "Srate", "label", "Max"],
                                    ["Max", "Srate", "id", "Rate", "label"],
                                    ["label", "Rate", "Max", "Srate"]])
def test_read_flows_matches_the_per_cell_path(tmp_path, monkeypatch, chunk_rows, quoted, header):
    """Blocks numpy's tokenizer parses give the bits, labels and bad rows of
    the per-cell path (``csv.reader`` and ``parse_value``) on every input,
    block by block."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
    p = tmp_path / "edge.csv"
    p.write_bytes(edge_corpus(header, quoted).encode("utf-8"))
    tokenized, parsed = ingest._tokenized, []

    def spy(lines, usecols):
        block = tokenized(lines, usecols)
        parsed.append(0 if block is None else len(block))
        return block

    features = ["Max", "Rate", "Srate"]
    for label in ("label", None):
        monkeypatch.setattr(ingest, "_tokenized", spy)
        fast = list(iter_flows(p, features, label))
        monkeypatch.setattr(ingest, "_tokenized", lambda lines, usecols: None)
        slow = list(iter_flows(p, features, label))
        assert len(fast) == len(slow)
        for (X, labels, bad), (slow_X, slow_labels, slow_bad) in zip(fast, slow):
            assert X.view(np.uint64).tolist() == slow_X.view(np.uint64).tolist()
            assert labels == slow_labels and bad == slow_bad
        assert sum(parsed) > len(READ_CELLS) + 3  # the tokenizer read a whole block
        parsed.clear()


class TestVocabulary:
    def test_binary_mapping(self):
        vocab = build_vocabulary(ClassificationMode.BINARY)
        assert vocab.classes == ("Benign", "Attack")
        assert vocab.raw_to_class["BenignTraffic"] == 0
        assert vocab.raw_to_class["DDoS-ICMP_Flood"] == 1
        assert vocab.raw_to_class["Mirai-udpplain"] == 1

    def test_grouped_has_eight_classes(self):
        vocab = build_vocabulary(ClassificationMode.GROUPED)
        assert len(vocab.classes) == 8
        assert set(vocab.classes) == {
            "Benign", "BruteForce", "DDoS", "DoS", "Mirai", "Recon", "Spoofing", "Web-based",
        }
        assert vocab.classes == tuple(sorted(vocab.classes))
        assert vocab.raw_to_class["DDoS-SYN_Flood"] == vocab.classes.index("DDoS")
        assert vocab.raw_to_class["VulnerabilityScan"] == vocab.classes.index("Recon")
        assert vocab.raw_to_class["DictionaryBruteForce"] == vocab.classes.index("BruteForce")

    def test_multi_has_thirty_four_sorted_classes(self):
        vocab = build_vocabulary(ClassificationMode.MULTI)
        assert len(vocab.classes) == 34
        assert vocab.classes == tuple(sorted(vocab.classes))
        for i, name in enumerate(vocab.classes):
            assert vocab.raw_to_class[name] == i

    def test_class_counts_follow_the_family_table(self, monkeypatch):
        # a family added to family_map.json is one more grouped class and head unit
        table = dict(schema.family_map(), NewAttack="NewFamily")
        monkeypatch.setattr(schema, "family_map", lambda: table)
        vocab = build_vocabulary(ClassificationMode.GROUPED)
        assert len(vocab.classes) == ClassificationMode.GROUPED.class_count == 9
        assert vocab.raw_to_class["NewAttack"] == vocab.classes.index("NewFamily")
        assert ClassificationMode.MULTI.class_count == 35
        assert ClassificationMode.BINARY.class_count == 2
        head = build("cnn", ClassificationMode.GROUPED, FEATURES).layers[-1]
        assert head.bias.value.shape == (9,)

    def test_vocabulary_stable_across_calls(self):
        a = build_vocabulary(ClassificationMode.MULTI)
        b = build_vocabulary(ClassificationMode.MULTI)
        assert a.classes == b.classes
        assert a.raw_to_class == b.raw_to_class

    def test_unknown_label_strict_vs_lenient(self):
        vocab = build_vocabulary(ClassificationMode.MULTI)
        assert "NotARealAttack" not in vocab.raw_to_class
        kept, classes, dropped = map_labels(["BenignTraffic", "NotARealAttack", "XSS"], vocab)
        assert kept.tolist() == [0, 2]
        assert dropped == 1
        assert classes[0] == vocab.raw_to_class["BenignTraffic"]
        assert classes.dtype == np.int64


class TestSubsample:
    def test_fraction_one_is_identity(self):
        y = np.array([0, 1, 0, 1, 2])
        idx = subsample_indices(y, 1.0, Rng(0))
        assert np.array_equal(idx, np.arange(5))

    def test_exact_proportion(self):
        y = np.concatenate([np.zeros(1000, dtype=int), np.ones(500, dtype=int)])
        idx = subsample_indices(y, 0.1, Rng(3))
        kept = y[idx]
        assert (kept == 0).sum() == 100
        assert (kept == 1).sum() == 50

    def test_minimum_one_row_per_class(self):
        y = np.array([0] * 100 + [1] * 3)
        idx = subsample_indices(y, 0.01, Rng(1))
        assert (y[idx] == 1).sum() >= 1

    def test_deterministic_under_seed(self):
        y = np.random.default_rng(0).integers(0, 5, size=2000)
        a = subsample_indices(y, 0.25, Rng(42))
        b = subsample_indices(y, 0.25, Rng(42))
        assert np.array_equal(a, b)
        c = subsample_indices(y, 0.25, Rng(43))
        assert not np.array_equal(a, c)


class TestStratifiedSplit:
    def test_900_100_proportions(self):
        y = np.array([0] * 900 + [1] * 100)
        split = stratified_split(y, 0.8, seed=1)
        assert split.train.size == 800
        assert split.test.size == 200
        assert (y[split.train] == 0).sum() == 720
        assert (y[split.train] == 1).sum() == 80

    def test_single_class_plain_split(self):
        y = np.zeros(1000, dtype=int)
        split = stratified_split(y, 0.8, seed=2)
        assert split.train.size == 800 and split.test.size == 200

    def test_disjoint_and_covering(self):
        y = np.random.default_rng(1).integers(0, 7, size=997)
        split = stratified_split(y, 0.8, seed=3)
        merged = np.sort(np.concatenate([split.train, split.test]))
        assert np.array_equal(merged, np.arange(997))

    def test_per_class_within_one_row(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            sizes = rng.integers(2, 60, size=int(rng.integers(2, 9)))
            y = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
            split = stratified_split(y, 0.8, seed=trial)
            for c, size in enumerate(sizes):
                got = (y[split.train] == c).sum()
                assert abs(got - 0.8 * size) <= 1.0

    def test_determinism_by_hash(self):
        y = np.random.default_rng(3).integers(0, 5, size=4000)
        a = stratified_split(y, 0.8, seed=7)
        b = stratified_split(y, 0.8, seed=7)
        assert hash(a.train.tobytes()) == hash(b.train.tobytes())
        assert hash(a.test.tobytes()) == hash(b.test.tobytes())

    def test_class_too_small(self):
        with pytest.raises(MissingInputError):
            stratified_split(np.array([0, 0, 1]), 0.8, seed=0)

    def test_tiny_class_keeps_both_sides(self):
        y = np.array([0] * 50 + [1] * 2)
        split = stratified_split(y, 0.8, seed=0)
        assert (y[split.train] == 1).sum() == 1
        assert (y[split.test] == 1).sum() == 1

    def test_round_half_up_reproduces_published_row_totals(self):
        # 4,668,653 rows at 0.8 -> 3,734,922 / 933,731 with round-half-up,
        # the totals reported for the binary regime of the reference corpus.
        n = 4_668_653
        train = int(np.floor(0.8 * n + 0.5))
        assert train == 3_734_922
        assert n - train == 933_731
        # multi regime total: 4,570,593 -> 3,656,474.4; per-class rounding can
        # land on either neighbour, so only the one-row bracket is forced
        assert abs(int(np.floor(0.8 * 4_570_593 + 0.5)) - 3_656_475) <= 1


class TestNormalizer:
    def test_midpoint_maps_to_half(self):
        X = np.array([[0.0], [10.0]])
        stats = fit_normalizer(X)
        out = apply_normalizer(np.array([[5.0]]), stats)
        assert out[0, 0] == pytest.approx(0.5)

    def test_constant_feature_zero(self):
        X = np.full((4, 2), 3.0)
        X[:, 1] = [0, 1, 2, 3]
        stats = fit_normalizer(X)
        out = apply_normalizer(X, stats)
        assert np.all(out[:, 0] == 0.0)
        assert np.allclose(out[:, 1], [0, 1 / 3, 2 / 3, 1.0])

    def test_test_values_clipped(self, np_rng):
        X_train = np_rng.normal(size=(50, 4))
        X_test = np_rng.normal(size=(200, 4)) * 5.0  # wider than the train range
        stats = fit_normalizer(X_train)
        out = apply_normalizer(X_test, stats)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(MissingInputError):
            fit_normalizer(np.zeros((0, 3)))


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path, np_rng):
        X = np_rng.normal(size=(17, 5)).astype(np.float32)
        y = np_rng.integers(0, 34, size=17)
        names = [f"f{i}" for i in range(5)]
        path = tmp_path / "d.fsds"
        write_cache(path, X, y, names, MULTI_META)
        X2, y2, names2, _, meta = read_cache(path)
        assert np.array_equal(X, X2)
        assert np.array_equal(y, y2)
        assert names2 == names
        assert meta == MULTI_META

    def test_layout_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "d.fsds"
        write_cache(path, np.zeros((2, 1), dtype=np.float32), np.zeros(2, dtype=int), ["a"],
                    MULTI_META)
        blob = path.read_bytes()
        assert blob[:4] == b"FSDS"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:13], "little") == 2
        assert int.from_bytes(blob[13:21], "little") == 1

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "d.fsds"
        write_cache(path, np.ones((4, 3), dtype=np.float32), np.zeros(4, dtype=int),
                    ["a", "b", "c"], MULTI_META)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(SchemaError):
            read_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.fsds"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(SchemaError):
            read_cache(path)

    @pytest.mark.parametrize("fault,message", [
        ("class-index", "class index 34 is not an index into the 34 classes"),
        ("nan", "NaN or infinite"), ("inf", "NaN or infinite"), ("-inf", "NaN or infinite"),
    ], ids=["class-index", "nan", "inf", "-inf"])
    def test_contents_ingest_never_writes_rejected(self, tmp_path, fault, message):
        X = np.ones((4, 3), dtype=np.float32)
        y = np.array([0, 33, 1, 2])
        if fault == "class-index":
            y[1] = 34
        else:
            X[2, 1] = float(fault)
        path = tmp_path / "d.fsds"
        write_cache(path, X, y, ["a", "b", "c"], MULTI_META)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_cache(path)

    def test_deterministic_bytes(self, tmp_path):
        X = np.arange(12, dtype=np.float32).reshape(4, 3)
        y = np.array([0, 1, 2, 3])
        write_cache(tmp_path / "a.fsds", X, y, ["x", "y", "z"], MULTI_META)
        write_cache(tmp_path / "b.fsds", X, y, ["x", "y", "z"], MULTI_META)
        assert (tmp_path / "a.fsds").read_bytes() == (tmp_path / "b.fsds").read_bytes()


class TestSyntheticFixture:
    def test_covers_all_classes_with_skew(self):
        X, labels = generate_fixture(rows=5000, seed=0)
        assert X.shape == (5000, 46)
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        assert set(counts) == set(schema.raw_labels())
        assert min(counts.values()) >= 15
        assert max(counts.values()) > 20 * min(counts.values()) / 10  # skewed

    def test_deterministic(self):
        X1, l1 = generate_fixture(rows=300, seed=5)
        X2, l2 = generate_fixture(rows=300, seed=5)
        assert np.array_equal(X1, X2) and l1 == l2
        X3, _ = generate_fixture(rows=300, seed=6)
        assert not np.array_equal(X1, X3)

    def test_csv_round_trips_through_ingest(self, tmp_path):
        path = tmp_path / "fixture.csv"
        write_fixture_csv(path, rows=200, seed=1)
        (X, labels), report = load_csv([path])
        assert len(X) == len(labels) == 200
        assert report.rows_dropped == 0

    def test_all_values_finite(self):
        X, _ = generate_fixture(rows=500, seed=2)
        assert np.all(np.isfinite(X))

    # the sha256 that write_fixture_csv gave when it ran csv.writer over one
    # f"{v:.9g}" per cell; the fixture is every benchmark's and digest's input
    @pytest.mark.parametrize("rows, seed, digest", [
        (500, 3, "64bc947b9e70cff183645e26c33dfb6561d07e288c7d50b0cc594795bf90557e"),
        (5000, 0, "d96394b9d341df6d07d1fe336c15250363e2556df24a070d643ab95b98025c52"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, rows, seed, digest):
        path = tmp_path / "fixture.csv"
        write_fixture_csv(path, rows=rows, seed=seed)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("rows", [150, 170, 198, 199])
    def test_too_few_rows_raise_value_error(self, rows):
        with pytest.raises(ValueError, match=f"rows={rows} is too small"):
            generate_fixture(rows=rows)

    def test_minimum_rows_cover_every_class(self):
        X, labels = generate_fixture(rows=200)  # the documented minimum
        assert X.shape == (200, len(schema.FEATURE_COLUMNS))
        assert set(labels) == set(schema.raw_labels())


@pytest.mark.parametrize("text", ["BenignTraffic", "", " ", "a,b", 'say "hi"', '"', "a\nb",
                                  "a\rb", "ü"])
def test_csv_cell_is_what_csv_writer_writes(text):
    buf = io.StringIO()
    csv.writer(buf).writerow([1, text, 2])
    assert buf.getvalue() == f"1,{csv_cell(text)},2\r\n"

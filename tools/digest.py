"""Byte-identity digest of the pipeline's artefacts over a fixed, seeded matrix.

Each step runs as its own ``python -m flowsentinel.cli`` child of a source
tree, and the command prints JSON: per thread setting, the sha256 of every
artefact and the exit code and stderr of every step. The matrix:

* ``ingest`` in binary, grouped and multi mode over two files (``--data a b``),
  of a 30k-row file with 1% malformed rows at ``--subsample 0.1``, and of a
  file of edge-case cells, lines and line ends;
* ``select --recompute-importance`` on the subsampled cache, then the same
  command again with the child pinned to one CPU (step ``select-1cpu``, whose
  ``importance.csv`` must hash the same as ``select``'s);
* ``train`` (2 epochs), ``evaluate`` and ``predict`` for cnn and lstm in all
  three modes, predicting over 4,097 rows (more than one inference batch)
  and over one row;
* ``predict`` on every bad-cell case, which must exit 3;
* ``evaluate`` of the binary model against a cache of the same two files
  re-ingested at ``--subsample 0.5``, which must exit 5.

Wall-clock fields are removed before hashing: the ``seconds`` column of
``history.csv``, and the run directory wherever it appears. Inputs are made
once, by this tree's fixture generator, and shared by every run. The report
also gives each tree's ``src/`` line count (the lines of its ``.py`` files).

    python tools/digest.py                          # this tree
    python tools/digest.py --against HEAD~1         # and REV's; exit 1 if any differ
    python tools/digest.py --against HEAD~1 --threads 1,2

``--against REV`` extracts REV with ``git archive`` into a temporary
directory. ``--threads 1,2`` runs the matrix once under each
``OPENBLAS_NUM_THREADS`` value. The command also exits 1 when a tree's
``select-1cpu`` ranking differs from its ``select`` ranking.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from flowsentinel.data import schema, write_fixture_csv  # noqa: E402
from flowsentinel.features import canonical_top20  # noqa: E402

SEED = 11
MODES = ("binary", "grouped", "multi")
CACHE = ("dataset.fsds", "dataset.fsds.meta.json", "ingest_report.json")
# predict input cells that must stop predict (None: a row cut short before the cell)
BAD_CELLS = {"nan": "nan", "inf": "inf", "n-a": "n/a", "empty": "", "hash": "2.0#x",
             "overflow": "1e400", "short": None}
EDGE_CELLS = ["1_000", "١٢", "\xa01.5", "2.0#x", "0x10", "1d5", "nan(1)", "-Infinity",
              "1e400", "", "   ", "1.5 2", "\x1c1", "nan", "-nan", " 2.5 ", '"1.5"']


def make_inputs(inputs: Path) -> None:
    inputs.mkdir()
    write_fixture_csv(inputs / "flows.csv", rows=3000, seed=SEED)
    write_fixture_csv(inputs / "more.csv", rows=1000, seed=SEED + 1)
    write_fixture_csv(inputs / "new.csv", rows=4097, seed=SEED + 2)
    write_fixture_csv(inputs / "big.csv", rows=30000, seed=SEED + 3)
    header, *rows = (inputs / "flows.csv").read_text(encoding="utf-8").splitlines()
    (inputs / "one.csv").write_text(f"{header}\n{rows[0]}\n", encoding="utf-8")

    rng = random.Random(SEED)  # 1% malformed rows, one damaged cell each
    big = (inputs / "big.csv").read_text(encoding="utf-8").splitlines()
    for k, i in enumerate(rng.sample(range(1, len(big)), len(big) // 100)):
        cells = big[i].split(",")
        if k % 4 == 3:
            cells[-1] = ""
        else:
            cells[rng.randrange(len(cells) - 1)] = ("n/a", "nan", "inf")[k % 4]
        big[i] = ",".join(cells)
    (inputs / "dirty.csv").write_text("\n".join(big) + "\n", encoding="utf-8")

    width = len(header.split(","))
    short = ",".join(rows[1].split(",")[:9])
    edge = [header] + rows[:200] + ["", "   ", rows[0] + ",extra", short]
    for k, text in enumerate(EDGE_CELLS):
        cells = rows[200 + k].split(",")
        cells[(7 * k) % (width - 1)] = text
        edge.append(",".join(cells))
    edge.append(rows[230].rsplit(",", 1)[0] + ',"Benign,\nTraffic"')
    ends = ["\n", "\r", "\r\n"]
    text = "".join(line + ends[k % 3] for k, line in enumerate(edge + rows[240:300]))
    (inputs / "edge.csv").write_text(text, encoding="utf-8")

    # the last canonical feature in the file, so a '#' there would end the row
    column = max(canonical_top20(), key=list(schema.FEATURE_COLUMNS).index)
    at = header.split(",").index(column)
    for name, text in BAD_CELLS.items():
        cells = rows[2].split(",")
        cells = cells[:at] if text is None else cells[:at] + [text] + cells[at + 1:]
        lines = [header] + rows[:2] + [",".join(cells)] + rows[3:5]
        (inputs / f"bad-{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def matrix():
    """(step, argv, artefacts the step writes), in run order. A step whose name
    ends in ``-1cpu`` runs pinned to one CPU."""
    steps = []
    for mode in MODES:
        out = f"runs/{mode}"
        steps.append((f"ingest-{mode}", ["ingest", "--data", "inputs/flows.csv", "inputs/more.csv",
                                         "--mode", mode, "--seed", SEED, "--out", out],
                      [f"{out}/{name}" for name in CACHE]))
    steps += [
        ("ingest-dirty", ["ingest", "--data", "inputs/dirty.csv", "--mode", "multi",
                          "--subsample", 0.1, "--seed", SEED, "--out", "runs/dirty"],
         [f"runs/dirty/{name}" for name in CACHE]),
        ("ingest-edge", ["ingest", "--data", "inputs/edge.csv", "--mode", "multi", "--out",
                         "runs/edge"], [f"runs/edge/{name}" for name in CACHE]),
    ]
    select = ["select", "--recompute-importance", "--seed", SEED, "--out", "runs/dirty"]
    steps += [(step, select, ["runs/dirty/features.txt", "runs/dirty/importance.csv"])
              for step in ("select", "select-1cpu")]
    for mode in MODES:
        out = f"runs/{mode}"
        model = f"{out}/model.fsnn"
        for arch in ("cnn", "lstm"):
            steps += [
                (f"train-{arch}-{mode}", ["train", "--arch", arch, "--mode", mode, "--epochs", 2,
                                          "--seed", SEED, "--out", out],
                 [model, f"{out}/history.csv", f"{out}/manifest.json"]),
                (f"evaluate-{arch}-{mode}", ["evaluate", "--model", model, "--out", out],
                 [f"{out}/metrics.json"]),
            ]
            for name in ("new", "one"):
                pred = f"{out}/predict-{arch}-{name}"
                steps.append((f"predict-{arch}-{mode}-{name}",
                              ["predict", "--model", model, "--input", f"inputs/{name}.csv",
                               "--out", pred], [f"{pred}/predictions.csv"]))
    for name in BAD_CELLS:
        pred = f"runs/multi/predict-bad-{name}"
        steps.append((f"predict-bad-{name}", ["predict", "--model", "runs/multi/model.fsnn",
                                              "--input", f"inputs/bad-{name}.csv", "--out", pred],
                      [f"{pred}/predictions.csv"]))
    steps += [
        ("ingest-half", ["ingest", "--data", "inputs/flows.csv", "inputs/more.csv", "--mode",
                         "binary", "--subsample", 0.5, "--seed", SEED, "--out", "runs/half"],
         [f"runs/half/{name}" for name in CACHE]),
        ("evaluate-half", ["evaluate", "--model", "runs/binary/model.fsnn", "--out", "runs/half"],
         ["runs/half/metrics.json"]),
    ]
    return steps


def scrub(data: bytes, name: str, work: Path) -> bytes:
    """The artefact without wall-clock fields."""
    data = data.replace(str(work).encode(), b"<work>")
    if name.endswith("history.csv"):
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return data


def src_lines(src: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def run_matrix(src: Path, inputs: Path, work: Path, threads: str | None) -> dict:
    work.mkdir(parents=True)
    (work / "inputs").symlink_to(inputs)
    env = dict(os.environ, PYTHONPATH=str(src))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    artefacts, runs = {}, {}
    one_cpu = {min(os.sched_getaffinity(0))}
    for step, argv, outputs in matrix():
        pin = (lambda: os.sched_setaffinity(0, one_cpu)) if step.endswith("-1cpu") else None
        proc = subprocess.run([sys.executable, "-m", "flowsentinel.cli", *map(str, argv)],
                              cwd=work, env=env, capture_output=True, preexec_fn=pin)
        runs[step] = {"exit": proc.returncode,
                      "stderr": scrub(proc.stderr, "", work).decode(errors="replace")}
        for output in outputs:  # hashed now: a later step may overwrite the file
            path = work / output
            if path.exists():
                artefacts[f"{step}/{path.name}"] = hashlib.sha256(
                    scrub(path.read_bytes(), output, work)).hexdigest()
    return {"artefacts": artefacts, "runs": runs}


def differences(this: dict, other: dict) -> list:
    ours, theirs = this["artefacts"], other["artefacts"]
    differ = [name for name in sorted({*ours, *theirs}) if ours.get(name) != theirs.get(name)]
    return differ + [f"{step} (exit, stderr)" for step in this["runs"]
                     if this["runs"][step] != other["runs"].get(step)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--threads", help="comma-separated OPENBLAS_NUM_THREADS values")
    args = parser.parse_args(argv)
    settings = args.threads.split(",") if args.threads else [None]
    report, failed = {}, False
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        tmp = Path(tmp)
        trees = {"this": ROOT / "src"}
        if args.against:
            git = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True)
            if git.returncode:
                print(f"error: git archive {args.against}: {git.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
            with tarfile.open(fileobj=BytesIO(git.stdout)) as tar:
                tar.extractall(tmp / "against", filter="data")
            trees["against"] = tmp / "against" / "src"
        report["src_lines"] = {tree: src_lines(src) for tree, src in trees.items()}
        print("src/ lines: " + ", ".join(f"{tree} {n}" for tree, n in report["src_lines"].items()),
              file=sys.stderr)
        make_inputs(tmp / "inputs")
        for threads in settings:
            key = f"threads={threads or 'default'}"
            report[key] = {tree: run_matrix(src, tmp / "inputs", tmp / key / tree, threads)
                           for tree, src in trees.items()}
            for tree, result in report[key].items():
                ranked = {result["artefacts"].get(f"{step}/importance.csv")
                          for step in ("select", "select-1cpu")}
                if len(ranked) != 1:
                    failed = True
                    print(f"{key}: {tree} ranks differently on one CPU", file=sys.stderr)
            if args.against:
                differ = differences(report[key]["this"], report[key]["against"])
                report[key]["differ"] = differ
                failed |= bool(differ)
                print(f"{key}: {len(report[key]['this']['artefacts'])} artefacts, "
                      f"{len(differ)} differ from {args.against}", file=sys.stderr)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

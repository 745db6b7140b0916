"""Byte-identity digest of the pipeline's artefacts over a fixed, seeded matrix.

Each step runs as its own ``python -m flowsentinel.cli`` child of a source
tree (the ``probs`` steps as a ``python -c PROBABILITIES`` child), and the
command prints JSON: per thread setting, the sha256 of every artefact and the
exit code and stderr of every step. The matrix:

* ``ingest`` in binary, grouped and multi mode over two files (``--data a b``),
  of a 30k-row file with 1% malformed rows at ``--subsample 0.1``, and of a
  file of edge-case cells, lines and line ends;
* ``select --recompute-importance`` on the subsampled cache, then the same
  command again with the child pinned to one CPU (step ``select-1cpu``, whose
  ``importance.csv`` must hash the same as ``select``'s);
* ``train`` (2 epochs), ``evaluate`` (its metrics.json and its metrics.txt
  table) and ``predict`` for cnn and lstm in all three modes, predicting
  over 4,097 rows (more than one inference batch), over 513 rows (which end
  in a one-row chunk at 512 rows per chunk, and not at 4,096, so a
  chunk-size change can show; see ``FIXTURES``) and over one row;
* ``probs`` for each trained model: the float32 bytes of the probabilities
  that the tree's ``Model.batches`` returns over the scaled ``new``, ``mid``
  and ``one`` inputs, one file each, so that a change of any bit of inference
  shows, not only one that moves ``predictions.csv``'s six decimals, and the
  model's parameter values (``Model.parameters()`` in order, float32) as
  ``params.f32``, so that a change to the model file's header alone shows
  that the weights did not move;
* ``predict`` on every bad-cell case, which must exit 3;
* ``evaluate`` of the binary model against a cache of the same two files
  re-ingested at ``--subsample 0.5``, which must exit 5.

Wall-clock fields are removed before hashing: the ``seconds`` column of
``history.csv``, and the run directory wherever it appears. Inputs are made
once, by this tree's fixture generator, and shared by every run. The report
also gives each tree's ``src/`` and ``tests/`` line counts (``src_lines`` and
``tests_lines``, the lines of their ``.py`` files), so a change can show that
code was deleted and not moved into the tests, and the sha256 of each fixture
file (``inputs``). Under ``usage`` it records each step's peak RSS
(``peak_rss_mb``) and minor page faults (``minflt``), from the child's own
rusage (``os.wait4``), and it prints each tree's total faults over the
``train-lstm-*`` steps on stderr. These are measurements, so they are never
compared. Linux floors a child's peak RSS at this command's own peak, so this
command makes the inputs in a child and stays at about the size of a numpy
import, below every step's own peak.

    python tools/digest.py                          # this tree
    python tools/digest.py --against HEAD~1         # and REV's; exit 1 if any differ
    python tools/digest.py --against HEAD~1 --threads 1,2

``--against REV`` extracts REV with ``git archive`` into a temporary
directory. It also writes the fixture files with REV's generator, in a child
with REV's ``src`` on ``PYTHONPATH``, and lists each file whose sha256
differs under ``differ`` as ``inputs/<name>``. ``--threads 1,2`` runs the
matrix once under each ``OPENBLAS_NUM_THREADS`` value. The command also
exits 1 when a tree's ``select-1cpu`` ranking differs from its ``select``
ranking.
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
# the inputs the fixture generator writes: name -> (rows, seed). mid.csv's last
# row is alone in its 512-row chunk, and a one-row product can round unlike the
# chunk's; the ``probs`` artefacts show every such bit, while the six printed
# decimals rarely do: of 60 seeds tried, the last row's line changed with the
# chunk size for 4, among them SEED + 8 (the grouped cnn model, at 1 and 2 BLAS
# threads)
FIXTURES = {"flows.csv": (3000, SEED), "more.csv": (1000, SEED + 1), "new.csv": (4097, SEED + 2),
            "big.csv": (30000, SEED + 3), "mid.csv": (513, SEED + 8)}
# a child's program: write the fixtures named in argv[2] (JSON) into directory argv[1]
WRITE_FIXTURES = """if True:
    import json, os, sys
    from flowsentinel.data import write_fixture_csv
    for name, (rows, seed) in json.loads(sys.argv[2]).items():
        write_fixture_csv(os.path.join(sys.argv[1], name), rows=rows, seed=seed)
"""
# a child's program: make this tree's inputs in directory argv[1]. Reading and
# damaging big.csv peaks at ~98 MB, and a child's peak RSS is floored by this
# process's peak, so this process must not do it
MAKE_INPUTS = """if True:
    import sys
    from pathlib import Path
    sys.path.insert(0, sys.argv[2])
    from digest import make_inputs
    make_inputs(Path(sys.argv[1]))
"""
PREDICTED = ("new", "mid", "one")
# a child's program: write into directory argv[2], as <name>.f32, the float32
# probabilities of model argv[1] over each input inputs/<name>.csv named after it,
# and as params.f32 the model's parameter values
PROBABILITIES = """if True:
    import os, sys
    import numpy as np
    from flowsentinel.data import apply_normalizer, iter_flows
    from flowsentinel.models import load
    model = load(sys.argv[1])
    os.makedirs(sys.argv[2], exist_ok=True)
    with open(os.path.join(sys.argv[2], "params.f32"), "wb") as out:
        for p in model.parameters():
            out.write(np.asarray(p.value, dtype="<f4").tobytes())
    for name in sys.argv[3:]:
        path = os.path.join("inputs", name + ".csv")
        X = np.concatenate([apply_normalizer(block, model.normalizer)
                            for block, _, _ in iter_flows(path, model.feature_names)])
        with open(os.path.join(sys.argv[2], name + ".f32"), "wb") as out:
            for _, probs in model.batches(X):
                out.write(probs.tobytes())
"""


def make_inputs(inputs: Path) -> None:
    inputs.mkdir()
    for name, (rows, seed) in FIXTURES.items():
        write_fixture_csv(inputs / name, rows=rows, seed=seed)
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
    ends in ``-1cpu`` runs pinned to one CPU; an argv that starts with ``-c``
    is a Python program, any other one a CLI command."""
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
                 [f"{out}/metrics.json", f"{out}/metrics.txt"]),
            ]
            for name in PREDICTED:
                pred = f"{out}/predict-{arch}-{name}"
                steps.append((f"predict-{arch}-{mode}-{name}",
                              ["predict", "--model", model, "--input", f"inputs/{name}.csv",
                               "--out", pred], [f"{pred}/predictions.csv"]))
            probs = f"{out}/probs-{arch}"
            steps.append((f"probs-{arch}-{mode}", ["-c", PROBABILITIES, model, probs, *PREDICTED],
                          [f"{probs}/{name}.f32" for name in (*PREDICTED, "params")]))
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
         ["runs/half/metrics.json", "runs/half/metrics.txt"]),
    ]
    return steps


def scrub(data: bytes, name: str, work: Path) -> bytes:
    """The artefact without wall-clock fields."""
    data = data.replace(str(work).encode(), b"<work>")
    if name.endswith("history.csv"):
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return data


def write_fixtures(src: Path, inputs: Path) -> subprocess.CompletedProcess:
    """Write the ``FIXTURES`` files into ``inputs`` with source tree ``src``'s
    generator, in a child."""
    inputs.mkdir()
    return subprocess.run([sys.executable, "-c", WRITE_FIXTURES, str(inputs), json.dumps(FIXTURES)],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)))


def fixture_hashes(inputs: Path) -> dict:
    """The sha256 of each ``FIXTURES`` file, read in blocks: big.csv whole would
    raise this process's peak RSS, and with it every later child's."""
    hashes = {}
    for name in FIXTURES:
        digest = hashlib.sha256()
        with open(inputs / name, "rb") as file:
            for block in iter(lambda: file.read(1 << 20), b""):
                digest.update(block)
        hashes[name] = digest.hexdigest()
    return hashes


def py_lines(directory: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in directory.rglob("*.py"))


def run_matrix(src: Path, inputs: Path, work: Path, threads: str | None) -> dict:
    work.mkdir(parents=True)
    (work / "inputs").symlink_to(inputs)
    env = dict(os.environ, PYTHONPATH=str(src))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    artefacts, runs, usage = {}, {}, {}
    one_cpu = {min(os.sched_getaffinity(0))}
    for step, argv, outputs in matrix():
        pin = (lambda: os.sched_setaffinity(0, one_cpu)) if step.endswith("-1cpu") else None
        program = [] if argv[0] == "-c" else ["-m", "flowsentinel.cli"]
        with tempfile.TemporaryFile() as stderr:
            proc = subprocess.Popen([sys.executable, *program, *map(str, argv)], cwd=work,
                                    env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                                    preexec_fn=pin)
            try:
                _, status, rusage = os.wait4(proc.pid, 0)  # the child's own rusage
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            stderr.seek(0)
            runs[step] = {"exit": proc.returncode,
                          "stderr": scrub(stderr.read(), "", work).decode(errors="replace")}
        usage[step] = {"peak_rss_mb": round(rusage.ru_maxrss / 1024, 1),
                       "minflt": rusage.ru_minflt}
        for output in outputs:  # hashed now: a later step may overwrite the file
            path = work / output
            if path.exists():
                artefacts[f"{step}/{path.name}"] = hashlib.sha256(
                    scrub(path.read_bytes(), output, work)).hexdigest()
    return {"artefacts": artefacts, "runs": runs, "usage": usage}


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
        for part in ("src", "tests"):
            lines = report[f"{part}_lines"] = {tree: py_lines(src.parent / part)
                                               for tree, src in trees.items()}
            print(f"{part}/ lines: " + ", ".join(f"{tree} {n}" for tree, n in lines.items()),
                  file=sys.stderr)
        child = subprocess.run([sys.executable, "-c", MAKE_INPUTS, str(tmp / "inputs"),
                                str(ROOT / "tools")], capture_output=True)
        if child.returncode:
            print(f"error: making the inputs: {child.stderr.decode().strip()}", file=sys.stderr)
            return 2
        report["inputs"] = {"this": fixture_hashes(tmp / "inputs")}
        inputs_differ = []
        if args.against:
            child = write_fixtures(trees["against"], tmp / "against-inputs")
            if child.returncode:
                print(f"error: {args.against}'s fixture generator: {child.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
            theirs = report["inputs"]["against"] = fixture_hashes(tmp / "against-inputs")
            inputs_differ = [f"inputs/{name}" for name, digest in report["inputs"]["this"].items()
                             if theirs[name] != digest]
            print(f"inputs: {len(FIXTURES)} fixture files, {len(inputs_differ)} differ from "
                  f"{args.against}", file=sys.stderr)
        for threads in settings:
            key = f"threads={threads or 'default'}"
            report[key] = {tree: run_matrix(src, tmp / "inputs", tmp / key / tree, threads)
                           for tree, src in trees.items()}
            for tree, result in report[key].items():
                faults = sum(usage["minflt"] for step, usage in result["usage"].items()
                             if step.startswith("train-lstm-"))
                print(f"{key}: {tree} train-lstm-* steps {faults} minor faults", file=sys.stderr)
                ranked = {result["artefacts"].get(f"{step}/importance.csv")
                          for step in ("select", "select-1cpu")}
                if len(ranked) != 1:
                    failed = True
                    print(f"{key}: {tree} ranks differently on one CPU", file=sys.stderr)
            if args.against:
                differ = inputs_differ + differences(report[key]["this"], report[key]["against"])
                report[key]["differ"] = differ
                failed |= bool(differ)
                print(f"{key}: {len(report[key]['this']['artefacts'])} artefacts, "
                      f"{len(differ)} differ from {args.against}", file=sys.stderr)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

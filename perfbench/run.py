"""flowsentinel benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload cnn-train --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py`` and listed, with the metrics,
in ``BENCHMARK.json``. A run generates its inputs from ``--seed``, sets the
workload up, then repeats the workload's timed CLI operations, each as its
own ``python -m flowsentinel.cli`` process: at least ``MIN_ITERATIONS``
times, and again while the next iteration is expected to end within
``--seconds`` of the run's start. The set-up is repeated ``SETUP_REPS``
times in all, between iterations (``setup_s`` is the median), and set-up
operations that the timed ones leave out (say, ``ingest`` on a training
workload) are re-run between iterations, so every metric has samples
spread over the run.
Every operation's outputs are checked. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (operations) and
``metrics``. Each end-to-end metric is the median over the run's samples.

With ``--trace 1`` the run sets up once, runs the timed operations once
untraced, then once in this process under the span tracer (``tracer.py``),
and reports the per-layer metrics instead. The spans are written to
``.perfbench/trace-<workload>-s<seed>.jsonl``.

Each run also writes ``.perfbench/result-<workload>-s<seed>-t<trace>.json``
holding the metrics beside the environment that produced them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_ITERATIONS = 2
SETUP_OPS_SHARE = 0.25
# Stop starting new iterations once a run has taken this long, whatever
# --seconds asks for, so that a run always ends within its time limit.
RUN_DEADLINE_S = 120.0
THREAD_VARS = ("FLOWSENTINEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Context for the results; recorded beside them, never compared."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _median_of(results, value) -> float:
    if not results:
        raise RunFailed("no successful sample for a metric")
    return statistics.median(value(r) for r in results)


def _samples(results, command):
    """Successful runs of ``command``: the timed ones, or the set-up ones in a
    workload that runs that command only during set-up."""
    for phase in ("timed", "setup"):
        found = [r for r in results if r.command == command and r.phase == phase and r.ok]
        if found:
            return found
    return []


def end_to_end(results, iterations, setup_times) -> dict:
    train, predict = _samples(results, "train"), _samples(results, "predict")
    ingest, select = _samples(results, "ingest"), _samples(results, "select")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(r.wall_s for r in it) for it in iterations),
        "train_rows_per_s": _median_of(train, lambda r: r.rows / r.wall_s),
        "train_peak_rss_mb": _median_of(train, lambda r: r.peak_rss_mb),
        "test_accuracy": _median_of(train, lambda r: r.observed["test_accuracy"]),
        "predict_rows_per_s": _median_of(predict, lambda r: r.rows / r.wall_s),
        "predict_peak_rss_mb": _median_of(predict, lambda r: r.peak_rss_mb),
        "ingest_rows_per_s": _median_of(ingest, lambda r: r.rows / r.wall_s),
        "ingest_peak_rss_mb": _median_of(ingest, lambda r: r.peak_rss_mb),
        "select_s": _median_of(select, lambda r: r.wall_s),
        "ok_op_share": sum(r.ok for r in results) / len(results),
    }


def run(args, work: Path) -> tuple:
    """Returns (metrics, all op results)."""
    import workloads
    from ops import ChildRunner

    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    runner = ChildRunner(SRC, work)
    setup_times = []

    def set_up(inputs: Path) -> dict:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        t0 = time.perf_counter()
        state = workload.setup(runner, inputs, args.seed)
        setup_times.append(time.perf_counter() - t0)
        bad = [p for r in runner.results if r.phase == "setup" for p in r.problems]
        if bad:
            raise RunFailed("set-up failed: " + "; ".join(bad))
        return state

    inputs = work / "inputs"
    state = set_up(inputs)

    def iteration(op_runner):
        return [op_runner.run(op, "timed") for op in workload.timed_ops(inputs, args.seed, state)]

    if not args.trace:
        # The machine's speed drifts over seconds, so samples are spread over
        # the whole run: the remaining set-ups run between timed iterations.
        # When the timed operations leave some of the set-up's CLI operations
        # out, those are also re-run after every iteration, for about
        # SETUP_OPS_SHARE of the iteration's length (at least once), so that
        # their metrics do not rest on SETUP_REPS short samples alone. More
        # iterations follow MIN_ITERATIONS while the next one is expected,
        # from the last one's length, to end within --seconds.
        timed = {op.command for op in workload.timed_ops(inputs, args.seed, state)}
        untimed = {op.command for op in workload.setup_ops(inputs, inputs, args.seed)} - timed
        iterations, last = [], 0.0
        while (len(iterations) < MIN_ITERATIONS or len(setup_times) < SETUP_REPS
               or (time.perf_counter() - started < RUN_DEADLINE_S
                   and time.perf_counter() - started + last <= args.seconds)):
            t0 = time.perf_counter()
            iterations.append(iteration(runner))
            share = SETUP_OPS_SHARE * (time.perf_counter() - t0)
            if len(setup_times) < SETUP_REPS:
                set_up(work / "repeat")
                shutil.rmtree(work / "repeat")
            t1 = time.perf_counter()
            while untimed:
                for op in workload.setup_ops(inputs, work / "repeat", args.seed):
                    runner.run(op, "setup")
                shutil.rmtree(work / "repeat", ignore_errors=True)
                if time.perf_counter() - t1 >= share:
                    break
            last = time.perf_counter() - t0
        metrics = end_to_end(runner.results, iterations, setup_times)
        print(f"{len(iterations)} timed iterations, {len(setup_times)} set-ups")
        return metrics, runner.results

    from tracer import InProcessRunner, Tracer

    untraced = iteration(runner)
    tracer = Tracer()
    traced_runner = InProcessRunner(tracer)
    with tracer.installed():
        traced = iteration(traced_runner)
    problems = tracer.consistency_problems()
    if problems:
        traced[0].problems.extend(problems)
    metrics = tracer.metrics()
    metrics["trace.untraced_wall_s"] = sum(r.wall_s for r in untraced)
    metrics["trace.traced_wall_s"] = sum(r.wall_s for r in traced)
    metrics["trace.overhead"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed})
    for op_name, counts in tracer.per_op().items():
        print(f"per-op {op_name}: " + " ".join(f"{k}={v:g}" for k, v in counts.items()))
    for r_untraced, r_traced in zip(untraced, traced):
        print(f"trace overhead {r_traced.command}: traced {r_traced.wall_s:.3f} s in-process, "
              f"untraced {r_untraced.wall_s:.3f} s as a child process")
    return metrics, runner.results + traced_runner.results


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "flowsentinel" / "cli.py").is_file():
        print(f"error: {SRC / 'flowsentinel'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]

    work = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, results = run(args, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = [r for r in results if not r.ok]
    for r in failed:
        print("FAILED " + "; ".join(r.problems), file=sys.stderr)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    context = environment()
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": context, "metrics": report,
                    "failed_op_share": len(failed) / len(results),
                    "ops": [dataclasses.asdict(r) for r in results]}, indent=2),
        encoding="utf-8")
    print("environment " + json.dumps(context, sort_keys=True))
    print(f"failed_op_share {len(failed) / len(results)} share")
    for name, item in report.items():
        print(f"{name} {item['value']} {item['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

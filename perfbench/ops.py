"""CLI operations and the runner that executes them as child processes."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# A child that runs longer than this is killed and counted as failed, so one
# hung operation cannot hold the whole run past its time limit.
OP_TIMEOUT_S = 150.0


@dataclass
class Op:
    """One CLI invocation: ``python -m flowsentinel.cli <command> <args>``."""

    command: str
    args: list
    outputs: list  # files the op writes; removed before it runs so stale ones cannot pass a check
    check: Callable[[], list]  # problems found in the outputs; empty when correct
    rows: Callable[[], int] = lambda: 0  # rows processed, for the rows/s metrics
    observe: Callable[[], dict] = dict  # values read from the outputs, e.g. test accuracy

    def argv(self) -> list:
        return [self.command] + [str(a) for a in self.args]


@dataclass
class OpResult:
    command: str
    phase: str  # "setup" or "timed"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list
    rows: int = 0
    observed: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def finish(op: Op, phase: str, wall_s: float, cpu_s: float, rss_mb: float, code: int,
           log: str) -> OpResult:
    """Check an op's outputs once it has run and package its measurements."""
    if code != 0:
        problems = [f"{op.command} exited {code}: {log.strip()[-300:]}"]
        return OpResult(op.command, phase, wall_s, cpu_s, rss_mb, code, problems)
    problems = [f"{op.command}: {p}" for p in op.check()]
    observed = op.observe() if not problems else {}
    rows = op.rows() if not problems else 0
    return OpResult(op.command, phase, wall_s, cpu_s, rss_mb, code, problems, rows, observed)


class ChildRunner:
    """Runs each op as its own process, one at a time, and measures it.

    Wall time spans process start to exit. CPU time and peak RSS come from
    the child's own ``rusage`` (``os.wait4``), so they count BLAS threads and
    exclude the benchmark's process.
    """

    def __init__(self, src: Path, log_dir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        self.log_dir = log_dir
        self.results = []

    def run(self, op: Op, phase: str) -> OpResult:
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        log_path = self.log_dir / f"{op.command}.log"
        with open(log_path, "w+", encoding="utf-8") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "flowsentinel.cli", *op.argv()],
                stdout=log, stderr=subprocess.STDOUT, env=self.env,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            text = log.read()
        result = finish(op, phase, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, proc.returncode, text)
        self.results.append(result)
        return result

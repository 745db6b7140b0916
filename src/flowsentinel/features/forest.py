"""Random-forest regressor for impurity-based feature ranking.

The forest exists to score features, not to ship a general-purpose
regressor: importances are the per-tree weighted impurity decreases summed
per feature, averaged over trees, then normalized to sum to 1.

The trees grow in forked workers, one per usable CPU (at most one per tree),
which share X and its sorted columns copy-on-write and send back only the
trees. Each tree draws only from its own ``tree-{t}`` stream and they come
back in tree order, so the importances are the same bits at any CPU count.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError, KTooLargeError
from ..rng import Rng
from .tree import ForestConfig, check_inputs, grow_tree, sort_columns, tree_feature_decreases


@dataclass
class ImportanceReport:
    ranking: list  # [(feature_name, importance)], descending
    degenerate: bool  # True when no tree ever split (all importances zero)

    def total(self) -> float:
        return float(sum(v for _, v in self.ranking))


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


_forest = None  # a worker's (X, y, columns, config), set by the pool's initializer


def _share(forest: tuple, parent: int) -> None:
    """A worker's set-up: keep the forest, and die with the process that forked it."""
    global _forest
    _forest = forest
    if sys.platform == "linux":  # else a killed parent leaves its workers blocked forever
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # it died before the prctl
        os._exit(1)


def _tree(t: int, forest: tuple = None) -> TreeNode:
    """Tree t: its resample and its nodes' draws come from stream ``tree-{t}``."""
    X, y, columns, config = forest or _forest
    n = X.shape[0]
    rng = Rng(config.seed).spawn(f"tree-{t}")
    rows = rng.integers(n, n) if config.bootstrap else np.arange(n)
    return grow_tree(X, y, columns, rows, config, rng)


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> list:
    """Fit ``config.n_trees`` trees on seeded bootstrap resamples, in tree order.

    The columns are sorted once, on the un-resampled matrix, for every tree.
    With one usable CPU, or without ``fork``, the trees grow in this process.
    """
    import multiprocessing  # here: the other commands need not load the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    X, y = check_inputs(X, y, "fit_forest")
    forest = (X, y, sort_columns(X, y), config)
    workers = min(usable_cpus(), config.n_trees)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_tree(t, forest) for t in range(config.n_trees)]
    # named, not the default: Python 3.14 no longer forks by default on Linux
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_share,
                             initargs=(forest, os.getpid())) as pool:
        return list(pool.map(_tree, range(config.n_trees)))


def compute_importances(trees: list, feature_names: list) -> ImportanceReport:
    """Average per-feature impurity decrease over trees, normalized to sum 1."""
    if not trees:
        raise EmptyInputError("empty forest")
    d = len(feature_names)
    totals = np.zeros(d, dtype=np.float64)
    for tree in trees:
        totals += tree_feature_decreases(tree, d)
    totals /= len(trees)
    grand = totals.sum()
    degenerate = grand <= 0.0
    if not degenerate:
        totals = totals / grand
    ranking = sorted(zip(feature_names, totals.tolist()), key=lambda kv: (-kv[1], kv[0]))
    return ImportanceReport(ranking=ranking, degenerate=degenerate)


def select_top_k(report: ImportanceReport, k: int) -> list:
    """First k feature names by descending importance (ties lexicographic)."""
    if k > len(report.ranking):
        raise KTooLargeError(f"k={k} exceeds {len(report.ranking)} features")
    return [name for name, _ in report.ranking[:k]]


def export_importance_csv(report: ImportanceReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature,importance\n")
        for name, value in report.ranking:
            fh.write(f"{name},{value:.10f}\n")

"""Random-forest regressor for impurity-based feature ranking.

The forest exists to score features, not to ship a general-purpose
regressor: importances are the per-tree weighted impurity decreases summed
per feature, averaged over trees, then normalized to sum to 1.
"""

from __future__ import annotations

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


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> list:
    """Fit ``config.n_trees`` trees on seeded bootstrap resamples.

    Tree t draws its resample and its nodes' candidate features from its
    own stream, ``Rng(config.seed).spawn(f"tree-{t}")``. The columns are
    sorted once, on the un-resampled matrix, and shared by every tree.
    """
    X, y = check_inputs(X, y, "fit_forest")
    n = X.shape[0]
    columns = sort_columns(X, y)
    root = Rng(config.seed)
    trees = []
    for t in range(config.n_trees):
        rng = root.spawn(f"tree-{t}")
        rows = rng.integers(n, n) if config.bootstrap else np.arange(n)
        trees.append(grow_tree(X, y, columns, rows, config, rng))
    return trees


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

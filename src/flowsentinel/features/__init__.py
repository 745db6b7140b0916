"""Feature ranking by random-forest impurity importance."""

from importlib import resources

from .forest import (
    ImportanceReport,
    compute_importances,
    export_importance_csv,
    fit_forest,
)
from .tree import ForestConfig, TreeNode, fit_tree

__all__ = [
    "ForestConfig",
    "ImportanceReport",
    "TreeNode",
    "canonical_top20",
    "compute_importances",
    "export_importance_csv",
    "fit_forest",
    "fit_tree",
]


def canonical_top20() -> list:
    """The shipped default selection of 20 flow features, in rank order."""
    text = resources.files(__package__).joinpath("canonical_top20.txt").read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]

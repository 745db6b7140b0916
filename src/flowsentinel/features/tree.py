"""Regression tree (CART) with greedy variance-reduction splits, grown level by level.

Each split node records its *weighted* impurity decrease

    (n_node / n_root) * (var(node) - (n_L * var(L) + n_R * var(R)) / n_node)

which is what the forest sums into per-feature importances. Rows with
feature value <= threshold go left; thresholds are midpoints between
adjacent distinct sorted values. A node splits on the cut with the largest
positive decrease over its candidate features: ties go to the first cut in
value order, then to the first candidate slot. A node stays a leaf at
``max_depth``, below ``2 * min_samples_leaf`` rows or when its target is
constant.

Nodes are numbered as in a heap: the root is 0 and node h has children
2h+1 and 2h+2. Node h draws its k candidate features from its own stream,
``rng.spawn(f"node-{h}").choice(d, k)``, so a tree does not depend on the
order its nodes are built in, and a whole depth level is searched at once.
For each of the k candidate slots, one sort orders the level's rows by the
int64 key ``node * n + rank[row, feature]``: rows group by node, and within
a node they follow the value of that node's feature in this slot. The key
alone locates the row's value and target in the presorted columns, so no
argsort is needed. One cumulative sum over the level, minus its value
before each node's segment, gives the left-hand sum of every cut, and
``np.maximum.reduceat`` finds each node's best cut. The target is shifted
by its node's minimum before the sum: every shifted value lies within its
node's range, so the sums grow with the targets' spread, not their offset,
and integer targets (class indices) stay exact integers, so equal
partitions get equal decreases and the tie rules, not rounding, choose
between them.

``rank`` is a strict per-column rank of the un-resampled matrix (ties go to
the lower row index), computed once per forest, so a key names one
original row. Two rows share a key only when they are bootstrap copies of
one original row, which carry identical (x, y); and a sorted array of
keys, unlike an argsort, is the same whatever the sort algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..errors import EmptyInputError
from ..rng import Rng


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 5
    features_per_split: Optional[int] = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be at least 1, got {self.min_samples_leaf}")

    def resolve_features_per_split(self, d: int) -> int:
        k = self.features_per_split if self.features_per_split is not None else int(np.ceil(np.sqrt(d)))
        if not 1 <= k <= d:
            raise ValueError(f"features_per_split must be in [1, {d}], got {k}")
        return k


@dataclass
class TreeNode:
    """Leaf when ``feature`` is None, internal split otherwise."""

    n_samples: int
    feature: Optional[int] = None
    threshold: float = 0.0
    impurity_decrease: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class SortedColumns(NamedTuple):
    """Every column of (X, y) sorted once, shared by all trees of a forest.

    ``rank[i, f]`` is the strict rank of ``X[i, f]`` in column f (ties go to
    the lower row index); ``x[f * n + r]`` and ``y[f * n + r]`` are the
    feature value and target of the row with rank r in column f.
    """

    rank: np.ndarray
    x: np.ndarray
    y: np.ndarray


def sort_columns(X: np.ndarray, y: np.ndarray) -> SortedColumns:
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.arange(n)[:, None], axis=0)
    return SortedColumns(rank, np.take_along_axis(X, order, axis=0).T.ravel(), y[order].T.ravel())


def check_inputs(X, y, what: str):
    """(X, y) as C-contiguous float64 arrays, or EmptyInputError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError(f"{what} requires a non-empty 2-D feature matrix")
    if y.shape[0] != X.shape[0]:
        raise EmptyInputError("feature matrix and target length disagree")
    return X, y


def fit_tree(X: np.ndarray, y: np.ndarray, config: ForestConfig, rng: Rng) -> TreeNode:
    """Grow one regression tree on (X, y)."""
    X, y = check_inputs(X, y, "fit_tree")
    return grow_tree(X, y, sort_columns(X, y), np.arange(X.shape[0]), config, rng)


def grow_tree(X: np.ndarray, y: np.ndarray, columns: SortedColumns, rows: np.ndarray,
              config: ForestConfig, rng: Rng) -> TreeNode:
    """Grow one tree on the rows ``rows`` of (X, y), repeats allowed.

    ``X`` is C-contiguous float64 and ``columns`` is ``sort_columns(X, y)``.
    """
    n, d = X.shape
    k = config.resolve_features_per_split(d)
    min_leaf = config.min_samples_leaf
    flat_x, flat_rank = X.ravel(), columns.rank.ravel()
    n_root = rows.size
    root = TreeNode(n_samples=n_root)
    nodes, heap = [root], np.zeros(1, dtype=np.int64)
    row = np.asarray(rows, dtype=np.int64)  # original row of each active sample
    pos = np.zeros(n_root, dtype=np.int64)  # its node's index in ``nodes``

    for _ in range(config.max_depth):
        # -- which of this level's nodes may split ------------------------
        counts = np.bincount(pos, minlength=len(nodes))
        y_row = y[row]
        lo = np.full(len(nodes), np.inf)
        hi = np.full(len(nodes), -np.inf)
        np.minimum.at(lo, pos, y_row)
        np.maximum.at(hi, pos, y_row)
        open_ = np.flatnonzero((counts >= 2 * min_leaf) & (lo < hi))
        if open_.size == 0:
            break
        if open_.size < len(nodes):
            index = np.full(len(nodes), -1)
            index[open_] = np.arange(open_.size)
            pos = index[pos]
            keep = pos >= 0
            row, pos = row[keep], pos[keep]
            nodes = [nodes[i] for i in open_.tolist()]
            heap, counts, lo = heap[open_], counts[open_], lo[open_]

        # -- the level's segments and cuts, the same for every slot -------
        n_nodes, m = len(nodes), row.size
        node_ids = np.arange(n_nodes)
        ends = np.cumsum(counts)
        starts = ends - counts
        seg = np.repeat(node_ids, counts)  # node of each sorted position
        offset = np.arange(m) - starts[seg]
        # cut after sorted position i: left = offset 0..offset(i), at least min_leaf each side
        cut = np.flatnonzero((offset >= min_leaf - 1) & (offset < counts[seg] - min_leaf))
        cut_next, cut_seg = cut + 1, seg[cut]
        cut_start, cut_end = starts[cut_seg], ends[cut_seg]
        cuts_per_node = counts - 2 * min_leaf + 1
        first_cut = np.cumsum(cuts_per_node) - cuts_per_node
        n_left = (offset[cut] + 1).astype(np.float64)
        n_right = counts[cut_seg] - n_left
        n_node = counts.astype(np.float64)
        lo_seg = lo[seg]
        key_base = pos * n
        row_d = row * d
        sums = np.zeros(m + 1)
        countdown = cut.size - np.arange(cut.size)

        candidates = np.array([rng.spawn(f"node-{h}").choice(d, k) for h in heap.tolist()])
        best_decrease = np.zeros(n_nodes)
        best_feature = np.zeros(n_nodes, dtype=np.int64)
        best_threshold = np.zeros(n_nodes)
        for slot in range(k):
            feature = candidates[:, slot]
            keys = np.sort(key_base + flat_rank[row_d + feature[pos]])
            at_rank = keys + ((feature - node_ids) * n)[seg]  # feature * n + rank
            xs = columns.x[at_rank]
            np.cumsum(columns.y[at_rank] - lo_seg, out=sums[1:])
            left_sum = sums[cut_next]
            left = left_sum - sums[cut_start]
            right = sums[cut_end] - left_sum
            # an invalid cut scores 0, below every valid one: a node that may split
            # has a positive shifted total t, and a valid cut scores at least t^2/n
            score = (left * left / n_left + right * right / n_right) * (xs[cut] < xs[cut_next])
            top = np.maximum.reduceat(score, first_cut)
            # each node's first best cut is the one with the largest countdown
            first = cut.size - np.maximum.reduceat((score == top[cut_seg]) * countdown, first_cut)
            total = sums[ends] - sums[starts]
            decrease = (top - total * total / n_node) / n_node
            better = np.flatnonzero(decrease > best_decrease)
            at = cut[first[better]]
            best_decrease[better] = decrease[better]
            best_feature[better] = feature[better]
            best_threshold[better] = 0.5 * (xs[at] + xs[at + 1])

        # -- record the splits and route the rows to the next level -------
        split = best_decrease > 0.0
        if not split.any():
            break
        child = np.cumsum(split) - 1
        weight = counts / n_root
        go_right = flat_x[row_d + best_feature[pos]] > best_threshold[pos]
        keep = split[pos]
        row = row[keep]
        pos = 2 * child[pos[keep]] + go_right[keep]
        child_counts = np.bincount(pos, minlength=2 * int(split.sum())).tolist()
        next_nodes = []
        for i in np.flatnonzero(split).tolist():
            node = nodes[i]
            node.feature = int(best_feature[i])
            node.threshold = float(best_threshold[i])
            node.impurity_decrease = float(weight[i] * best_decrease[i])
            node.left = TreeNode(n_samples=child_counts[len(next_nodes)])
            node.right = TreeNode(n_samples=child_counts[len(next_nodes) + 1])
            next_nodes += (node.left, node.right)
        nodes = next_nodes
        heap = np.stack((2 * heap[split] + 1, 2 * heap[split] + 2), axis=1).ravel()
    return root


def tree_feature_decreases(node: TreeNode, d: int) -> np.ndarray:
    """Sum of weighted impurity decreases per feature over one tree."""
    totals = np.zeros(d, dtype=np.float64)
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            continue
        totals[n.feature] += n.impurity_decrease
        stack.extend((n.left, n.right))
    return totals

"""Tree/forest/importance behaviour against brute-force and synthetic oracles."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import flowsentinel
from flowsentinel.errors import EmptyInputError, KTooLargeError
from flowsentinel.features import (
    ForestConfig,
    canonical_top20,
    compute_importances,
    fit_forest,
    fit_tree,
    forest,
    select_top_k,
)
from flowsentinel.features.tree import grow_tree, tree_feature_decreases
from flowsentinel.rng import Rng


def brute_force_root_split(X, y, min_leaf):
    """Exhaustive search over every (feature, midpoint threshold) pair."""
    n, d = X.shape
    parent = np.mean((y - y.mean()) ** 2)
    best = None
    for f in range(d):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            left = X[:, f] <= thr
            n_l, n_r = left.sum(), (~left).sum()
            if n_l < min_leaf or n_r < min_leaf:
                continue
            var_l = np.mean((y[left] - y[left].mean()) ** 2)
            var_r = np.mean((y[~left] - y[~left].mean()) ** 2)
            decrease = parent - (n_l * var_l + n_r * var_r) / n
            if best is None or decrease > best[0] + 1e-12:
                best = (decrease, f, thr)
    return best


def full_feature_config(**overrides):
    defaults = dict(n_trees=1, max_depth=6, min_samples_leaf=2, features_per_split=None, bootstrap=False, seed=0)
    defaults.update(overrides)
    return ForestConfig(**defaults)


class TestFitTree:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.full(30, 4.25)
        tree = fit_tree(X, y, full_feature_config(), Rng(0))
        assert tree.is_leaf

    def test_step_target_splits_near_half(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200, 3))
        y = (X[:, 0] >= 0.5).astype(float)
        config = full_feature_config(features_per_split=3)
        tree = fit_tree(X, y, config, Rng(0))
        assert tree.feature == 0
        assert abs(tree.threshold - 0.5) < 0.05
        oracle = brute_force_root_split(X, y, config.min_samples_leaf)
        assert oracle[1] == 0

    def test_depth_limit_one_split(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(100, 2))
        y = X[:, 0] + X[:, 1]
        tree = fit_tree(X, y, full_feature_config(max_depth=1, features_per_split=2), Rng(0))
        assert not tree.is_leaf
        assert tree.left.is_leaf and tree.right.is_leaf

    def test_ties_go_to_first_cut_then_first_slot(self):
        # a mirrored target: the cuts after rows 0 and 4 score the same bits,
        # and the two identical columns give every cut the same score in both slots
        X = np.repeat(np.arange(6.0)[:, None], 2, axis=1)
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        config = full_feature_config(min_samples_leaf=1, features_per_split=2, max_depth=1)
        tree = fit_tree(X, y, config, Rng(0))
        assert tree.threshold == 0.5
        assert tree.feature == Rng(0).spawn("node-0").choice(2, 2)[0]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            fit_tree(np.zeros((0, 3)), np.zeros(0), full_feature_config(), Rng(0))

    def test_min_samples_leaf_below_one_rejected(self):
        with pytest.raises(ValueError):
            ForestConfig(min_samples_leaf=0)

    def test_no_trees_rejected(self):
        with pytest.raises(ValueError, match="n_trees"):
            ForestConfig(n_trees=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_root_split_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) + 2.0 * X[:, 0]
        config = full_feature_config(min_samples_leaf=3, features_per_split=d, max_depth=1)
        tree = fit_tree(X, y, config, Rng(seed))
        oracle = brute_force_root_split(X, y, 3)
        if oracle is None:
            assert tree.is_leaf
        else:
            assert tree.feature == oracle[1]
            assert tree.threshold == pytest.approx(oracle[2])
            n_root = X.shape[0]
            assert tree.impurity_decrease == pytest.approx((n_root / n_root) * oracle[0], rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_node_matches_brute_force(self, seed):
        """Each node splits as the exhaustive search over its own rows and drawn candidates."""
        data = np.random.default_rng(100 + seed)
        n, d, k = 200, 5, 2
        X = data.normal(size=(n, d))
        X[:, 3] = np.round(X[:, 3] * 2.0)  # few distinct values: cuts only between them
        y = data.normal(size=n) + 2.0 * X[:, 0] - X[:, 1] ** 2 + X[:, 3]
        config = full_feature_config(features_per_split=k)
        rng = Rng(seed)
        tree = fit_tree(X, y, config, rng)
        split_depths = []
        stack = [(tree, 0, 0, np.arange(n))]
        while stack:
            node, h, depth, rows = stack.pop()
            assert node.n_samples == rows.size
            oracle = None
            if (depth < config.max_depth and rows.size >= 2 * config.min_samples_leaf
                    and np.ptp(y[rows]) > 0):
                candidates = rng.spawn(f"node-{h}").choice(d, k)
                oracle = brute_force_root_split(X[rows][:, candidates], y[rows],
                                                config.min_samples_leaf)
            if oracle is None or oracle[0] <= 0.0:
                assert node.is_leaf
                continue
            decrease, slot, threshold = oracle
            assert node.feature == candidates[slot]
            assert abs(node.threshold - threshold) <= 1e-12
            assert node.impurity_decrease == pytest.approx(rows.size / n * decrease, rel=1e-9)
            go_left = X[rows, node.feature] <= node.threshold
            stack += [(node.left, 2 * h + 1, depth + 1, rows[go_left]),
                      (node.right, 2 * h + 2, depth + 1, rows[~go_left])]
            split_depths.append(depth)
        assert max(split_depths) == config.max_depth - 1

    def test_target_offset_leaves_splits_unchanged(self):
        data = np.random.default_rng(11)
        X = data.normal(size=(300, 4))
        y = data.normal(size=300) + X[:, 0] - X[:, 2] ** 2
        config = full_feature_config(features_per_split=2)
        stack = [(fit_tree(X, y, config, Rng(1)), fit_tree(X, y + 1e6, config, Rng(1)))]
        while stack:
            base, moved = stack.pop()
            assert base.is_leaf == moved.is_leaf
            if base.is_leaf:
                continue
            assert (moved.feature, moved.threshold) == (base.feature, base.threshold)
            assert moved.impurity_decrease == pytest.approx(base.impurity_decrease, rel=1e-6)
            stack += [(base.left, moved.left), (base.right, moved.right)]


class TestFitForest:
    def test_single_tree_no_bootstrap_equals_fit_tree(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(80, 3))
        y = X[:, 1] * 3.0
        config = full_feature_config(features_per_split=3)
        forest = fit_forest(X, y, config)
        solo = fit_tree(X, y, config, Rng(config.seed).spawn("tree-0"))
        assert np.array_equal(tree_feature_decreases(forest[0], 3), tree_feature_decreases(solo, 3))

    def test_determinism_under_seed(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(120, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0])
        config = ForestConfig(n_trees=7, max_depth=6, min_samples_leaf=3, seed=99)
        r1 = compute_importances(fit_forest(X, y, config), list("abcd"))
        r2 = compute_importances(fit_forest(X, y, config), list("abcd"))
        assert r1.ranking == r2.ranking


def node_bits(tree) -> list:
    """Every node of a tree in preorder, its floats as exact hex strings."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append((node.n_samples, node.feature, node.threshold.hex(),
                      node.impurity_decrease.hex()))
        if not node.is_leaf:
            stack += (node.right, node.left)
    return nodes


class TestPool:
    """Trees grown by worker processes against trees grown in this process."""

    CONFIG = ForestConfig(n_trees=6, max_depth=6, min_samples_leaf=3, seed=4)

    @staticmethod
    def data(target="float"):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(400, 6))
        if target == "integer":  # class indices, as select fits them
            y = (X[:, 0] > 0) + 2.0 * (X[:, 1] > 0.5) + rng.integers(0, 2, 400)
        else:
            y = rng.normal(size=400) + X[:, 0] - X[:, 2] ** 2
        return X, y

    @staticmethod
    def patch(monkeypatch, cpus, doomed=None, fail=None):
        """Claim ``cpus`` usable CPUs; tree ``doomed`` calls ``fail`` instead of growing."""
        seed = TestPool.CONFIG.seed
        doomed_seed = None if doomed is None else Rng(seed).spawn(f"tree-{doomed}").seed

        def grow(X, y, columns, rows, config, rng):
            if rng.seed == doomed_seed:
                fail()
            tree = grow_tree(X, y, columns, rows, config, rng)
            tree.pid = os.getpid()
            return tree

        monkeypatch.setattr(forest, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(forest, "grow_tree", grow)

    @pytest.mark.parametrize("target", ["integer", "float"])
    def test_one_cpu_matches_the_pool(self, monkeypatch, target):
        X, y = self.data(target)
        runs = {}
        for cpus in (1, 2, 5):  # 5: more workers than this host may have cores
            self.patch(monkeypatch, cpus)
            runs[cpus] = fit_forest(X, y, self.CONFIG)
        assert {tree.pid for tree in runs[1]} == {os.getpid()}
        assert sum(len(node_bits(t)) for t in runs[1]) > 6 * 3  # the trees did split
        names = list("abcdef")
        serial = compute_importances(runs[1], names).ranking
        for cpus in (2, 5):
            assert os.getpid() not in {tree.pid for tree in runs[cpus]}
            assert [node_bits(t) for t in runs[cpus]] == [node_bits(t) for t in runs[1]]
            pooled = compute_importances(runs[cpus], names).ranking
            assert [(k, v.hex()) for k, v in pooled] == [(k, v.hex()) for k, v in serial]
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller_with_its_type(self, monkeypatch):
        def fail():
            raise EmptyInputError("tree 2 has no rows")

        self.patch(monkeypatch, 2, doomed=2, fail=fail)
        with pytest.raises(EmptyInputError, match="tree 2 has no rows"):
            fit_forest(*self.data(), self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_dead_worker_breaks_the_pool_without_a_hang(self, monkeypatch):
        self.patch(monkeypatch, 2, doomed=3, fail=lambda: os._exit(7))
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            fit_forest(*self.data(), self.CONFIG)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    # a caller whose workers each note their pid in a directory, then stall
    STALLED_CALLER = """if True:
        import os, sys, time
        import numpy as np
        from flowsentinel.features import ForestConfig, forest

        def stall(*args):
            open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
            time.sleep(120)

        forest.usable_cpus, forest.grow_tree = (lambda: 2), stall
        forest.fit_forest(np.zeros((10, 2)), np.arange(10.0), ForestConfig(n_trees=2))
    """

    @pytest.mark.skipif(sys.platform != "linux", reason="the workers' parent-death signal")
    def test_killed_caller_takes_its_workers_along(self, tmp_path):
        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited

        src = str(Path(flowsentinel.__file__).resolve().parents[1])
        caller = subprocess.Popen([sys.executable, "-c", self.STALLED_CALLER, str(tmp_path)],
                                  env=dict(os.environ, PYTHONPATH=src))
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(path.name) for path in tmp_path.iterdir()]
            assert len(workers) == 2
            caller.kill()
            caller.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            caller.kill()
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)


class TestImportances:
    def test_leaf_only_forest_is_degenerate(self):
        X = np.random.default_rng(6).normal(size=(40, 3))
        y = np.zeros(40)  # constant: nothing to split
        forest = fit_forest(X, y, full_feature_config(n_trees=3))
        report = compute_importances(forest, ["a", "b", "c"])
        assert report.degenerate
        assert all(v == 0.0 for _, v in report.ranking)

    def test_single_signal_feature_dominates(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(300, 5))
        y = (X[:, 0] > 0.5).astype(float)  # pure function of feature 0
        config = ForestConfig(n_trees=15, max_depth=6, min_samples_leaf=5, seed=3)
        report = compute_importances(fit_forest(X, y, config), ["f0", "f1", "f2", "f3", "f4"])
        assert report.ranking[0][0] == "f0"
        importance = dict(report.ranking)
        assert importance["f0"] > max(importance[f] for f in ["f1", "f2", "f3", "f4"])

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(150, 4))
        y = X[:, 2] ** 2
        config = ForestConfig(n_trees=9, max_depth=5, min_samples_leaf=4, seed=5)
        report = compute_importances(fit_forest(X, y, config), list("wxyz"))
        assert report.total() == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for _, v in report.ranking)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(200, 3))
        y = 3.0 * X[:, 0] + X[:, 1]
        config = ForestConfig(n_trees=5, max_depth=5, min_samples_leaf=4,
                              features_per_split=3, bootstrap=False, seed=11)
        names = ["a", "b", "c"]
        base = dict(compute_importances(fit_forest(X, y, config), names).ranking)
        perm = [2, 0, 1]
        permuted = dict(
            compute_importances(fit_forest(X[:, perm], y, config), [names[j] for j in perm]).ranking
        )
        for name in names:
            assert permuted[name] == pytest.approx(base[name], rel=1e-9)


class TestSelectTopK:
    def test_k_equals_d_returns_all_sorted(self):
        report = compute_importances(
            fit_forest(
                np.random.default_rng(10).uniform(size=(100, 3)),
                np.random.default_rng(11).uniform(size=100),
                full_feature_config(n_trees=3, min_samples_leaf=5),
            ),
            ["a", "b", "c"],
        )
        top = select_top_k(report, 3)
        assert sorted(top) == ["a", "b", "c"]
        values = [dict(report.ranking)[name] for name in top]
        assert values == sorted(values, reverse=True)

    def test_k_one_on_single_signal(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(300, 4))
        y = (X[:, 0] > 0.5).astype(float)
        config = ForestConfig(n_trees=10, max_depth=6, min_samples_leaf=5, seed=2)
        report = compute_importances(fit_forest(X, y, config), ["f0", "f1", "f2", "f3"])
        assert select_top_k(report, 1) == ["f0"]

    def test_k_too_large(self):
        report = ImportanceReportStub()
        with pytest.raises(KTooLargeError):
            select_top_k(report, 4)

    def test_canonical_list(self):
        top = canonical_top20()
        assert len(top) == 20
        assert top[0] == "Srate"
        assert top[1] == "Rate"
        assert top[-1] == "IAT"
        assert "Protocol Type" in top and "Header_Length" in top


class ImportanceReportStub:
    ranking = [("a", 0.5), ("b", 0.3), ("c", 0.2)]

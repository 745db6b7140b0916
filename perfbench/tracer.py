"""Span tracer for the traced benchmark run.

The traced run executes the same CLI operations in this process through
``flowsentinel.cli.main(argv)``. ``Tracer.install`` wraps the public
functions and methods of each layer where they are looked up (a function
imported into ``flowsentinel.cli`` is patched in ``cli``'s namespace, a
method on its class), so nothing under ``src/`` changes. Each call records
a span (name, start, end, parent span, op id) in memory; ``write`` dumps
them at the end.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans under one operation add up to that
operation's span. Every ``*_s`` per-layer metric is a self time, except
``cli.<op>.wall_s`` (the whole op), ``cli.<op>.cpu_s`` (process CPU time
over the op, all threads) and the ``trace.*`` totals, which compare the
traced in-process ops with the same ops run untraced as child processes
(the latter include interpreter start-up, so the ratio can be below 1).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import time
import traceback
import weakref
from collections import defaultdict
from pathlib import Path

from ops import Op, OpResult, finish

OPS = ("ingest", "select", "train", "evaluate", "predict")
LAYERS = ("conv0", "relu0", "pool0", "conv1", "relu1", "pool1", "flatten",
          "lstm0", "dropout0", "lstm1", "dropout1", "head")


def _metric_table() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    s = lambda name: (name, "s", "lower")  # noqa: E731
    n = lambda name, better="lower": (name, "count", better)  # noqa: E731
    table = []
    for op in OPS:
        table += [s(f"cli.{op}.wall_s"), s(f"cli.{op}.cpu_s"), s(f"cli.{op}.self_s")]
    table += [
        s("data.ingest.load_csv_s"), n("data.ingest.rows_read", "higher"),
        n("data.ingest.rows_dropped"), s("data.labels.map_labels_s"),
        s("data.splits.subsample_s"), s("data.splits.stratified_split_s"),
        n("data.splits.stratified_split_calls"), s("data.normalize.fit_s"),
        s("data.normalize.apply_s"),
        s("data.cache.write_s"), s("data.cache.read_s"), n("data.cache.read_calls"),
        s("features.forest.fit_s"), n("features.forest.trees"), n("features.forest.nodes"),
        s("features.forest.importance_s"),
        s("rng.raw_s"), n("rng.raw_draws"),
    ]
    for layer in LAYERS:
        table += [s(f"nn.{layer}.forward_s"), s(f"nn.{layer}.backward_s"),
                  n(f"nn.{layer}.forward_calls")]
    table += [
        s("nn.activations.sigmoid_s"), n("nn.activations.sigmoid_calls"),
        s("nn.activations.tanh_s"), s("nn.activations.softmax_s"), s("nn.losses.loss_s"),
        s("nn.adam.step_s"), n("nn.adam.steps"),
        s("models.forward_s"), n("models.forward_calls"), s("models.backward_s"),
        s("models.predict_s"), s("models.save_s"), s("models.load_s"),
        s("training.train_s"), ("training.step_ms_p50", "ms", "lower"),
        ("training.step_ms_p99", "ms", "lower"), s("training.evaluate_s"),
        n("training.epochs", "higher"),
        s("trace.untraced_wall_s"), s("trace.traced_wall_s"), ("trace.overhead", "ratio", "lower"),
    ]
    return table


PER_LAYER = _metric_table()

_MISSING = object()
_NAMELESS = {"ReLU": "relu", "MaxPool1D": "pool", "Dropout": "dropout"}


def _count_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent span, op id, start, end]
        self._stack = []
        self._op = -1
        self._ops = 0
        self.counters = defaultdict(float)
        self.op_counters = defaultdict(lambda: defaultdict(float))  # op span name -> counters
        self._step_returns = []
        self.step_intervals_ms = []
        self._layer_names = weakref.WeakKeyDictionary()
        self._undo = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str, new_op: bool = False) -> int:
        if new_op:
            self._op = self._ops
            self._ops += 1
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self._op,
                           time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def _span(self, owner, attr: str, name, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``name`` may be a function of the call's args."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = tracer.open(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def _name_layers(self, model) -> None:
        seen = defaultdict(int)
        for layer in model.layers:
            params = layer.parameters()
            kind = type(layer).__name__
            if params:
                name = params[0].name.split("/")[0]
            elif kind == "Flatten":
                name = "flatten"
            else:
                prefix = _NAMELESS.get(kind, kind.lower())
                name = f"{prefix}{seen[prefix]}"
                seen[prefix] += 1
            self._layer_names[layer] = name

    def install(self) -> None:
        from flowsentinel import cli, models, rng, training
        from flowsentinel.nn import activations, adam, layers

        def add(key, value):
            self.counters[key] += value
            self.op_counters[self.spans[self._stack[0]][0]][key] += value

        span = self._span
        span(cli, "load_csv", "data.ingest.load_csv", after=lambda a, r: (
            add("data.ingest.rows_read", r[1].rows_read),
            add("data.ingest.rows_dropped", r[1].rows_dropped)))
        span(cli, "map_labels", "data.labels.map_labels")
        span(cli, "subsample_indices", "data.splits.subsample")
        for owner in (cli, training):
            span(owner, "stratified_split", "data.splits.stratified_split")
        span(cli, "fit_normalizer", "data.normalize.fit")
        span(cli, "apply_normalizer", "data.normalize.apply")
        span(cli, "write_cache", "data.cache.write")
        span(cli, "read_cache", "data.cache.read")
        span(cli, "fit_forest", "features.forest.fit", after=lambda a, r: (
            add("features.forest.trees", len(r)),
            add("features.forest.nodes", sum(_count_nodes(t) for t in r))))
        span(cli, "compute_importances", "features.forest.importance")
        span(cli, "train", "training.train", after=self._after_train)
        span(cli, "evaluate", "training.evaluate")
        span(cli, "save", "models.save")
        span(cli, "load", "models.load")
        for attr in ("sparse_categorical_cross_entropy", "sparse_categorical_logit_grad",
                     "binary_cross_entropy", "binary_logit_grad"):
            span(training, attr, "nn.losses.loss")
        span(models, "softmax", "nn.activations.softmax")
        span(models, "sigmoid", "nn.activations.sigmoid")
        span(activations, "sigmoid", "nn.activations.sigmoid")
        span(activations, "tanh", "nn.activations.tanh")
        span(models.Model, "forward", "models.forward")
        span(models.Model, "backward_from_logits", "models.backward")
        span(models.Model, "predict", "models.predict")
        span(adam.Adam, "step", "nn.adam.step",
             after=lambda a, r: self._step_returns.append(time.perf_counter()))
        span(rng.Rng, "raw", "rng.raw", after=lambda a, r: add("rng.raw_draws", len(r)))
        names = self._layer_names
        for cls in (layers.Conv1D, layers.ReLU, layers.MaxPool1D, layers.Flatten,
                    layers.Dense, layers.Dropout, layers.LSTM):
            for method in ("forward", "backward"):
                span(cls, method,
                     lambda a, m=method: f"nn.{names.get(a[0], 'unnamed')}.{m}")

        def naming(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                model = fn(*args, **kwargs)
                self._name_layers(model)
                return model
            return wrapper

        for owner in (cli, models):  # load() looks build up in models
            self._patch(owner, "build", naming)

    def _after_train(self, args, history) -> None:
        self.counters["training.epochs"] += len(history.epochs)
        self.op_counters["cli.train"]["training.epochs"] += len(history.epochs)
        times = self._step_returns
        self.step_intervals_ms += [(b - a) * 1e3 for a, b in zip(times, times[1:])]
        self._step_returns = []

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------
    def _self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(self.spans)]

    def consistency_problems(self) -> list:
        """Self times under each op must add up to the op's span, and no span
        may fall outside an op."""
        own = self._self_times()
        per_op = defaultdict(float)
        for (_, _, op, _, _), t in zip(self.spans, own):
            per_op[op] += t
        problems = []
        if -1 in per_op:
            problems.append("spans recorded outside any CLI operation")
        for name, parent, op, start, end in self.spans:
            if parent == -1 and abs(per_op[op] - (end - start)) > 1e-6:
                problems.append(f"{name}: self times sum to {per_op[op]:.6f} s, "
                                f"span is {end - start:.6f} s")
        return problems

    def metrics(self) -> dict:
        own = self._self_times()
        self_s, wall_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, _, _, start, end), t in zip(self.spans, own):
            self_s[name] += t
            wall_s[name] += end - start
            calls[name] += 1
        values = dict(self.counters)
        for name in self_s:
            values[name + "_s"] = self_s[name]
            values[name + "_calls"] = calls[name]
            if name.startswith("cli."):
                values[name + ".wall_s"] = wall_s[name]
                values[name + ".self_s"] = self_s[name]
        values["nn.adam.steps"] = calls["nn.adam.step"]
        if len(self.step_intervals_ms) >= 2:
            cuts = statistics.quantiles(self.step_intervals_ms, n=100, method="inclusive")
            values["training.step_ms_p50"] = cuts[49]
            values["training.step_ms_p99"] = cuts[98]
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER if not name.startswith("trace.")}

    def per_op(self, keys=("models.forward_calls", "data.cache.read_calls", "rng.raw_draws")) -> dict:
        """Selected counts split by CLI operation, e.g. forward passes per predict."""
        table = defaultdict(lambda: dict.fromkeys(keys, 0))
        root = {}
        for i, (name, parent, op, _, _) in enumerate(self.spans):
            if parent == -1:
                root[op] = name
            else:
                row = table[root[op]]
                if name + "_calls" in row:
                    row[name + "_calls"] += 1
        for op_name, counters in self.op_counters.items():
            for key in keys:
                if key in counters:
                    table[op_name][key] = counters[key]
        return {name: dict(row) for name, row in table.items()}

    def write(self, path: Path, header: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=["id", "parent", "op", "name", "start_s", "end_s"])) + "\n")
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, name, start - t0, end - t0]) + "\n")


class InProcessRunner:
    """Runs ops through ``flowsentinel.cli.main`` in this process, each
    inside a ``cli.<command>`` span, with the CLI's output captured."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.results = []

    def run(self, op: Op, phase: str) -> OpResult:
        from flowsentinel import cli

        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        log = io.StringIO()
        cpu = time.process_time()
        sid = self.tracer.open(f"cli.{op.command}", new_op=True)
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(op.argv())
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error in the program is a failed op, not a crash here
            code = 99
            log.write(traceback.format_exc())
        finally:
            self.tracer.close(sid)
        cpu = time.process_time() - cpu
        name, _, _, start, end = self.tracer.spans[sid]
        self.tracer.counters[f"{name}.cpu_s"] += cpu
        result = finish(op, phase, end - start, cpu, 0.0, code, log.getvalue())
        self.results.append(result)
        return result

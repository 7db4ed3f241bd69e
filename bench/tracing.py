"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each traced function at every place its name is
bound (the defining module, modules that imported it by name, class
attributes for methods) and restores the originals on uninstall.  The
per-op backward of autodiff is traced by wrapping the backward closure
of every node an op returns.

Each call opens a span (name, start, end, parent).  Autodiff op spans
are aggregated as they close, since a desk-scale round opens millions
of them; every other span is also kept in memory and written out when
the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from pathlib import Path

OPS = ("add", "subtract", "scalar_multiply", "multiply", "matmul", "relu", "tanh",
       "sigmoid", "absolute", "sum_reduce", "l2_norm", "concat_time", "slice",
       "causal_conv1d")
OP_FUNCTIONS = {op: ("slice_axis" if op == "slice" else op) for op in OPS}

CLI_COMMANDS = ("synth", "train", "eval", "transfer", "attack", "export")

# (module, function, span name) for module-level functions; a span name of
# None means "<module>.<function>".
FUNCTIONS = [
    ("autodiff", "backward", None),
    ("optim", "adam_update", None),
    ("data", "synth_generate", None),
    ("data", "write_dataset", None),
    ("data", "read_dataset", None),
    ("data", "split_by_sets", None),
    ("models", "save_model", None),
    ("models", "load_model", None),
    ("attack", "run_attack", None),
    ("attack", "pgd_step", None),
    ("attack", "spatial_loss", None),
    ("attack", "temporal_loss", None),
    ("evaluation", "whitebox_sweep", None),
    ("evaluation", "judge", None),
    ("evaluation", "blackbox_transfer", None),
    ("evaluation", "save_sweep", None),
    ("evaluation", "load_sweep", None),
] + [("cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]


def _matmul_flop(a, b) -> int:
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _conv_flop(x, w) -> int:
    return 2 * x.shape[0] * w.shape[0] * w.shape[1] * w.shape[2]


# forward flop of an op from its operand values; each operand that needs a
# gradient costs the same again in backward
FLOP = {"matmul": _matmul_flop, "causal_conv1d": _conv_flop}


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index or -1]
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []        # [start, child_s, span index, kept parent]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, keep: bool) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [time.perf_counter(), 0.0, index, index if keep else parent, name]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        start, child, index, _, name = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, fn, name, keep: bool = True, after=None):
        """`fn` inside a span; `name` is a string or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name if isinstance(name, str) else name(args), keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop the statistics (not the kept spans) at the start of a round."""
        self.stats.clear()
        self.counts.clear()

    # -- installation -----------------------------------------------------

    def _op_after(self, op: str):
        flop = FLOP.get(op)

        def after(args, out):
            bwd_after = None
            if flop is not None:
                cost = flop(args[0].value, args[1].value)
                needs = sum(1 for a in args[:2] if a.requires_grad)
                self.counts[f"autodiff.{op}.flop"] += cost

                def bwd_after(_args, _result):
                    self.counts[f"autodiff.{op}.flop"] += needs * cost

            if out._backward_fn is None:
                return
            out._backward_fn = self.wrap(out._backward_fn, f"autodiff.{op}.bwd",
                                         keep=False, after=bwd_after)

        return after

    def _run_attack_after(self, _args, result) -> None:
        self.counts["attack.results"] += 1
        self.counts["attack.success"] += int(result.success)
        self.counts["attack.best_step_total"] += result.best_step

    def install(self, sk) -> None:
        """Patch the modules of the package namespace `sk` (see run.import_package)."""
        replacements: dict[int, object] = {}
        for op, attr in OP_FUNCTIONS.items():
            original = getattr(sk.autodiff, attr)
            replacements[id(original)] = self.wrap(original, f"autodiff.{op}", keep=False,
                                                   after=self._op_after(op))
        for module, attr, name in FUNCTIONS:
            original = getattr(getattr(sk, module), attr)
            after = self._run_attack_after if attr == "run_attack" else None
            replacements[id(original)] = self.wrap(original, name or f"{module}.{attr}",
                                                   after=after)
        original_train = sk.models.train
        replacements[id(original_train)] = self.wrap(
            original_train, lambda args: f"models.train.{args[0].arch}")
        for module in sk.all_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
        self._patch(sk.models.TcnRegressor, "build_graph",
                    self.wrap(sk.models.TcnRegressor.build_graph, "models.build_graph.tcn"))
        self._patch(sk.models.GruRegressor, "build_graph",
                    self.wrap(sk.models.GruRegressor.build_graph, "models.build_graph.gru"))
        self._patch(sk.models.SequenceRegressor, "predict_flat",
                    self.wrap(sk.models.SequenceRegressor.predict_flat,
                              "models.predict_flat"))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Per-layer figures of the round since the last reset()."""

        def stat(name: str, field: int) -> float:
            return self.stats.get(name, (0, 0.0, 0.0))[field]

        values: dict[str, float] = {}
        for op in OPS:
            values[f"autodiff.{op}.calls"] = stat(f"autodiff.{op}", 0)
            values[f"autodiff.{op}.fwd_s"] = stat(f"autodiff.{op}", 2)
            values[f"autodiff.{op}.bwd_s"] = stat(f"autodiff.{op}.bwd", 2)
        for op in FLOP:
            values[f"autodiff.{op}.flop"] = self.counts[f"autodiff.{op}.flop"]
        spans = [name or f"{module}.{attr}" for module, attr, name in FUNCTIONS]
        spans += [f"models.{kind}.{arch}" for kind in ("build_graph", "train")
                  for arch in ("tcn", "gru")]
        for name in spans + ["models.predict_flat"]:
            values[f"{name}.s"] = stat(name, 2)
        for name in ("optim.adam_update", "attack.run_attack", "evaluation.judge"):
            values[f"{name}.calls"] = stat(name, 0)
        results = self.counts["attack.results"]
        values["attack.success"] = self.counts["attack.success"]
        values["attack.best_step_mean"] = (
            self.counts["attack.best_step_total"] / results if results else 0.0)
        return values

    def count_nodes(self, build) -> int:
        """Autodiff op calls made by `build()`; the statistics are left as they were."""
        saved_stats, saved_counts = self.stats, self.counts
        self.stats, self.counts = {}, Counter()
        try:
            build()
            return sum(self.stats.get(f"autodiff.{op}", (0,))[0] for op in OPS)
        finally:
            self.stats, self.counts = saved_stats, saved_counts

    def write_spans(self, path: Path) -> None:
        """Kept spans as {"names": [...], "spans": [[name id, start, end, parent], ...]}."""
        ids: dict[str, int] = {}
        rows = [[ids.setdefault(name, len(ids)), start, end, parent]
                for name, start, end, parent in self.spans]
        path.write_text(json.dumps({"names": list(ids), "spans": rows},
                                   separators=(",", ":")) + "\n", encoding="utf-8")


def median_per_key(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}

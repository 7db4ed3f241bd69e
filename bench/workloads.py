"""The workloads: what one round runs, what it measures, how it is checked.

Each workload gets the package as a namespace of its modules (see
run.import_package) and calls every package function through its module
attribute, so the tracer's patches reach every call.  round() runs the
timed work and returns that round's samples of each end-to-end metric
(one sample per timed call or group of calls); check() then verifies the
round's outputs outside any timed region.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import reference

ARCHS = ("tcn", "gru")
SLOW_SHARE = 0.1    # see slow_end


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


@contextlib.contextmanager
def _timing(owner, attr: str, record):
    """While active, every call of `owner.attr` is timed: record(args, seconds)."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        record(args, time.perf_counter() - started)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def slow_end(values: list[float], rate: bool) -> float:
    """The 90th percentile of a run's times and sizes (the 10th percentile of its rates).

    The shared host runs the same work at a steady contended speed, with
    bursts up to twice as fast that last seconds to minutes; the share of
    burst time differs from run to run.  The median and the fast end of a
    run's samples follow that share; the slow end, which lies in the
    contended state, moves least from run to run.
    """
    return float(np.quantile(values, SLOW_SHARE if rate else 1.0 - SLOW_SHARE))


def _fresh(model):
    """A new model object over the same (never mutated in place) parameter arrays."""
    return type(model)(model.config, params=dict(model.params))


def _pick_labels(sk, seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [str(c) for c in rng.choice(sk.data.CATEGORIES, size=count, replace=False)]


def _gradient_coords(rng: np.random.Generator, shape, count: int = 4):
    return [(int(rng.integers(shape[0])), int(rng.integers(shape[1]))) for _ in range(count)]


class Workload:
    name = ""
    setup_repeats = 5
    min_rounds = 2      # cli-pipeline's byte-identity check compares a round with the first

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def summarise(self, samples: dict) -> dict:
        """Each end-to-end figure: the slow end of its samples in the run.

        Where a round records the times of its stages (`stage.<name>_s`),
        pipeline_s is the sum of the stages' figures.
        """
        values = {name: slow_end(got, rate=name.endswith("_per_s"))
                  for name, got in samples.items()}
        stages = [name for name in values if name.startswith("stage.")]
        if stages:
            values["pipeline_s"] = sum(values.pop(name) for name in stages)
        return values

    # ------------------------------------------------------------------
    # shared by the two library-level workloads

    def _check_gradient(self, sk, ops, arch, model, x, target, kappa, lam):
        xt = sk.autodiff.Tensor(x, requires_grad=True)
        cfg = sk.attack.AttackConfig(target=target, kappa=kappa, lam=lam)
        loss, _ = sk.attack.adv_loss(model, xt, target, cfg)
        sk.autodiff.backward(loss)
        config, params = dataclasses.asdict(model.config), model.params

        def ref_loss(z):
            return reference.attack_loss(reference.forward(arch, config, params, z),
                                         z, target, kappa, lam)

        ops.check(checks.check_gradient, xt.grad, ref_loss, x,
                  _gradient_coords(self.rng, x.shape), f"{arch} gradient")

    def _check_sweep(self, sk, ops, arch, model, report, results, inputs):
        """Attack invariants of every cell of a white-box sweep report."""
        config, params = dataclasses.asdict(model.config), model.params
        objectives = {o.label: o for o in report.objectives}
        for cell in report.cells:
            target = objectives[cell.objective].target.flat()
            expected = []
            for i, seq in enumerate(inputs):
                result = results[(cell.objective, cell.epsilon)][i]
                adv = result.adversarial.flat()
                ref_out = reference.forward(arch, config, params, adv)
                what = f"{arch} {cell.objective} eps={cell.epsilon} sample {i}"
                ops.check(checks.check_forward, model.predict_flat(adv), ref_out, what)
                ops.check(checks.check_attack, seq.flat(), adv, cell.epsilon,
                          result.distance_sum, result.distance_trace, result.success,
                          cell.kappa, ref_out, target, what)
                expected.append(reference.distance_sum(ref_out, target) < cell.kappa)
            ops.check(checks.check_flags_equal, expected, cell.flags,
                      f"{arch} sweep {cell.objective} eps={cell.epsilon}")

    def _check_transfer(self, sk, ops, report, source, receiver, receiver_arch, entry):
        """Transfer onto the source reproduces the white-box flags; onto another
        model its flags follow the receiver's reference forward."""
        identity = sk.evaluation.blackbox_transfer(report, source, "identity")
        ops.check(checks.check_flags_equal, [c.flags for c in report.cells],
                  [c.flags for c in identity.cells], "transfer onto the source")
        ops.check(checks.require, [c.sums for c in report.cells]
                  == [c.sums for c in identity.cells],
                  "transfer onto the source changed the distance sums")
        config, params = dataclasses.asdict(receiver.config), receiver.params
        objectives = {o.label: o for o in report.objectives}
        for cell in entry.cells:
            target = objectives[cell.objective].target.flat()
            expected = [reference.distance_sum(reference.forward(
                receiver_arch, config, params, adv), target) < cell.kappa
                for adv in cell.adversarial]
            ops.check(checks.check_flags_equal, expected, cell.flags,
                      f"transfer onto {receiver_arch} eps={cell.epsilon}")

    def _save_load(self, sk, arch: str, model):
        """One save_model/load_model round trip: (loaded model, save s, load s)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{arch}.json"
        _, save_s = _timed(sk.models.save_model, model, path)
        loaded, load_s = _timed(sk.models.load_model, path)
        return loaded, save_s, load_s

    def _checkpoint_round_trip(self, sk, ops, models: dict, samples, saves: int,
                               loads: int) -> dict:
        """Save every model `saves` times, then load them all `loads` times.

        One sample of each ckpt metric: the seconds one save (load) of all
        the models takes, averaged over the group, so that a sample lasts
        long enough to be steady.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {arch: self.workdir / f"{arch}.json" for arch in models}
        started = time.perf_counter()
        for _ in range(saves):
            for arch, model in models.items():
                sk.models.save_model(model, paths[arch])
        saved = time.perf_counter()
        for _ in range(loads):
            loaded = {arch: sk.models.load_model(path) for arch, path in paths.items()}
        samples["ckpt.save_s"].append((saved - started) / saves)
        samples["ckpt.load_s"].append((time.perf_counter() - saved) / loads)
        samples["ckpt.bytes"].append(float(sum(path.stat().st_size for path in paths.values())))
        ops.done(len(models) * (saves + loads))
        return loaded

    def _check_round_trip(self, ops, models: dict, loaded: dict, x: np.ndarray):
        for arch, model in models.items():
            ops.check(checks.check_same_params, model.params, loaded[arch].params,
                      f"{arch} checkpoint")
            ops.check(checks.check_arrays_equal, model.predict_flat(x),
                      loaded[arch].predict_flat(x), f"{arch} checkpoint predictions")


class DeskSweep(Workload):
    """Acceptance-fixture shapes: train both models, sweep, transfer, checkpoint.

    After every attack a probe takes one sample of each training, transfer
    and checkpoint metric, so that those samples spread over the whole run.
    """

    name = "desk-sweep"
    HELD = {"s03s04"}
    MODELS = {"tcn": dict(hidden_layers=3, channels=64), "gru": dict(stack=[(1, 64)])}
    RULES = ("pgd", "adam")   # one objective per update rule
    KAPPA_SHARE = 0.95        # success: the attack cuts the natural distance by 5 %
    DATA_SEED = 7             # the acceptance fixture's synthetic data; --seed varies the rest

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.epochs = {"tcn": 3, "gru": 3} if quick else {"tcn": 20, "gru": 8}
        self.probe_epochs = {"tcn": 1, "gru": 1} if quick else {"tcn": 3, "gru": 1}
        self.steps = 4 if quick else 50
        self.ckpt_loads = 1 if quick else 3
        self.first_histories = None

    def setup(self, sk):
        records = sk.data.synth_generate(seed=self.DATA_SEED, n_per_category=1, frames=16,
                                         joints=5)
        self.split = sk.data.split_by_sets(records, self.HELD)
        self.inputs = [r.actor for r in sk.data.held_out_records(records, self.HELD)]
        in_dim = self.inputs[0].flat().shape[1]
        self.init = {arch: sk.models.create_model(arch, in_dim, preset="tiny", seed=self.seed,
                                                  **self.MODELS[arch]) for arch in ARCHS}
        self.objectives = sk.evaluation.make_objectives(
            records, _pick_labels(sk, self.seed, len(self.RULES)),
            sk.evaluation.DEFAULT_TOLERANCES, seed=self.seed, prefer_ids=self.HELD)
        # warm-up: every code path of a round once, at a tiny size
        for arch in ARCHS:
            model, _ = sk.models.train(_fresh(self.init[arch]), self.split.train[:2],
                                       sk.models.TrainConfig(epochs=1))
            for rule in self.RULES:
                sk.attack.run_attack(model, self.inputs[0], sk.attack.AttackConfig(
                    target=self.objectives[0].target, kappa=1.0, steps=2, update_rule=rule))

    def round(self, sk, ops):
        """Train; sweep each model per objective, one update rule per objective.

        Each attack is one sample of its model's attack rate, timed from the
        sweep's result callback.  A probe runs after every attack, from the
        same callback; its time is in no attack sample and no stage.
        """
        samples = defaultdict(list)
        self.models, self.histories = {}, {}
        for arch in ARCHS:
            (self.models[arch], self.histories[arch]), dt = _timed(
                sk.models.train, _fresh(self.init[arch]), self.split,
                sk.models.TrainConfig(epochs=self.epochs[arch]))
            samples[f"train.{arch}.epochs_per_s"].append(self.epochs[arch] / dt)
            samples[f"stage.train-{arch}_s"].append(dt)
        ops.done(len(ARCHS))
        grid = list(sk.attack.EPSILON_GRID)
        objectives = {arch: [dataclasses.replace(o, kappa=self.KAPPA_SHARE * sk.evaluation
                                                 .derive_kappa(model, self.inputs, o, 25.0))
                             for o in self.objectives]
                      for arch, model in self.models.items()}
        self.reports = {arch: [] for arch in ARCHS}
        self.results = {arch: {} for arch in ARCHS}
        self.transfers = {}
        self.probe_histories = {arch: [] for arch in ARCHS}
        self.probes = 0
        for k, rule in enumerate(self.RULES):
            for arch, model in self.models.items():
                results = self.results[arch]
                rate = samples[f"attack.{arch}.steps_per_s"]
                attacking = 0.0
                mark = time.perf_counter()

                def on_result(label, eps, result):
                    nonlocal mark, attacking
                    dt = time.perf_counter() - mark
                    rate.append(self.steps / dt)
                    attacking += dt
                    results.setdefault((label, eps), []).append(result)
                    self._probe(sk, ops, samples)
                    mark = time.perf_counter()

                report = sk.evaluation.whitebox_sweep(
                    model, arch, self.inputs, [objectives[arch][k]], epsilon_grid=grid,
                    base_cfg=sk.attack.AttackConfig(steps=self.steps, update_rule=rule),
                    on_result=on_result)
                attacking += time.perf_counter() - mark
                samples[f"stage.sweep-{arch}-{rule}_s"].append(attacking)
                self.reports[arch].append(report)
                ops.done(len(grid) * len(self.inputs))
        self._probe(sk, ops, samples)
        return samples

    def _probe(self, sk, ops, samples):
        """A short training of each model; a transfer of each model's latest
        finished sweep onto the other model; every other probe, one save and a
        few loads of both models."""
        for arch in ARCHS:
            epochs = self.probe_epochs[arch]
            (_, history), dt = _timed(sk.models.train, _fresh(self.init[arch]), self.split,
                                      sk.models.TrainConfig(epochs=epochs))
            samples[f"train.{arch}.epochs_per_s"].append(epochs / dt)
            self.probe_histories[arch].append(history)
        ops.done(len(ARCHS))
        for source, receiver in (("tcn", "gru"), ("gru", "tcn")):
            if not self.reports[source]:
                continue
            k = len(self.reports[source]) - 1
            report = self.reports[source][k]
            self.transfers[(source, k)], dt = _timed(
                sk.evaluation.blackbox_transfer, report, self.models[receiver], receiver)
            samples[f"predict.{receiver}.seqs_per_s"].append(
                sum(len(c.adversarial) for c in report.cells) / dt)
            ops.done()
        if self.probes % 2 == 0:
            self.loaded = self._checkpoint_round_trip(sk, ops, self.models, samples,
                                                      saves=1, loads=self.ckpt_loads)
        self.probes += 1

    def check(self, sk, ops):
        if self.first_histories is None:
            self.first_histories = {arch: (self.histories[arch], self.probe_histories[arch][0])
                                    for arch in ARCHS}
        for arch, model in self.models.items():
            ops.check(checks.check_training, self.histories[arch], f"{arch} training")
            first_history, first_probe = self.first_histories[arch]
            ops.check(checks.require, self.histories[arch] == first_history,
                      f"{arch}: training again gives another loss history")
            ops.check(checks.require, all(np.isfinite(first_probe))
                      and all(h == first_probe for h in self.probe_histories[arch]),
                      f"{arch}: probe trainings give another or a non-finite loss history")
            for report in self.reports[arch]:
                self._check_sweep(sk, ops, arch, model, report, self.results[arch],
                                  self.inputs)
            first = self.reports[arch][0]
            cell = first.cells[-1]
            self._check_gradient(sk, ops, arch, model, cell.adversarial[0],
                                 first.objectives[0].target.flat(), cell.kappa,
                                 sk.attack.DEFAULT_LAMBDA)
        for source, receiver in (("tcn", "gru"), ("gru", "tcn")):
            for k, report in enumerate(self.reports[source]):
                self._check_transfer(sk, ops, report, self.models[source],
                                     self.models[receiver], receiver,
                                     self.transfers[(source, k)])
        self._check_round_trip(ops, self.models, self.loaded, self.inputs[0].flat())

    def graph_nodes(self, sk, tracer):
        return _graph_nodes(sk, tracer, self.models, self.inputs[0], self.objectives[0])


class FullScale(Workload):
    """`full` presets, seeded untrained weights: attacks, forward-only judging, checkpoints."""

    name = "full-scale"
    setup_repeats = 3
    HELD = {"s03s04", "s05s02"}

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.epochs = 3     # the first Adam step can raise the loss of an untrained full model
        self.steps = 2 if quick else 5
        self.sweeps = 2
        self.predict_samples = 1 if quick else 3

    def setup(self, sk):
        records = sk.data.synth_generate(seed=self.seed, n_per_category=1, frames=40)
        split = sk.data.split_by_sets(records, self.HELD)
        self.pairs = split.train[:1]
        self.inputs = [r.actor for r in sk.data.held_out_records(records, self.HELD)]
        in_dim = self.inputs[0].flat().shape[1]
        self.models = {arch: sk.models.create_model(arch, in_dim, preset="full", seed=self.seed)
                       for arch in ARCHS}
        objective = sk.evaluation.make_objectives(
            records, _pick_labels(sk, self.seed, 1), sk.evaluation.DEFAULT_TOLERANCES,
            seed=self.seed, prefer_ids=self.HELD)[0]
        # warm-up: the first full-size attack step runs several times slower than later ones
        self.objectives = {}
        for arch, model in self.models.items():
            self.objectives[arch] = dataclasses.replace(
                objective, kappa=sk.evaluation.derive_kappa(model, self.inputs, objective, 25.0))
            sk.attack.run_attack(model, self.inputs[0], sk.attack.AttackConfig(
                target=objective.target, kappa=1.0, steps=1))

    def _train(self, sk, ops, samples) -> dict:
        histories = {}
        for arch in ARCHS:
            (_, histories[arch]), dt = _timed(sk.models.train, _fresh(self.models[arch]),
                                              self.pairs,
                                              sk.models.TrainConfig(epochs=self.epochs))
            samples[f"train.{arch}.epochs_per_s"].append(self.epochs / dt)
        ops.done(len(ARCHS))
        return histories

    def round(self, sk, ops):
        """Train copies; per model: two sweeps, transfer to the other, checkpoint."""
        started = time.perf_counter()
        samples = defaultdict(list)
        self.histories = self._train(sk, ops, samples)
        self.reports, self.results, self.transfers, self.loaded = {}, {}, {}, {}
        save_s = load_s = 0.0
        for source, receiver in (("tcn", "gru"), ("gru", "tcn")):
            model = self.models[source]
            self.reports[source], self.results[source] = [], []
            for _ in range(self.sweeps):
                results = {}
                self.results[source].append(results)
                report, dt = _timed(
                    sk.evaluation.whitebox_sweep, model, source, self.inputs,
                    [self.objectives[source]], epsilon_grid=[0.45],
                    base_cfg=sk.attack.AttackConfig(steps=self.steps),
                    on_result=lambda label, eps, r: results.setdefault((label, eps), []).append(r))
                self.reports[source].append(report)
                samples[f"attack.{source}.steps_per_s"].append(
                    len(self.inputs) * self.steps / dt)
                ops.done(len(self.inputs))
            for _ in range(self.predict_samples):
                self.transfers[source], dt = _timed(
                    sk.evaluation.blackbox_transfer, report, self.models[receiver], receiver)
                samples[f"predict.{receiver}.seqs_per_s"].append(len(self.inputs) / dt)
            ops.done(self.predict_samples)
            self.loaded[source], save, load = self._save_load(sk, source, model)
            save_s += save
            load_s += load
            ops.done()
        samples["ckpt.save_s"].append(save_s)
        samples["ckpt.load_s"].append(load_s)
        samples["ckpt.bytes"].append(
            float(sum((self.workdir / f"{arch}.json").stat().st_size for arch in ARCHS)))
        samples["pipeline_s"].append(time.perf_counter() - started)
        return samples

    def check(self, sk, ops):
        for arch, model in self.models.items():
            ops.check(checks.check_training, self.histories[arch], f"{arch} training")
            for report, results in zip(self.reports[arch], self.results[arch]):
                self._check_sweep(sk, ops, arch, model, report, results, self.inputs)
            cell = self.reports[arch][-1].cells[0]
            self._check_gradient(sk, ops, arch, model, cell.adversarial[0],
                                 self.objectives[arch].target.flat(), cell.kappa,
                                 sk.attack.DEFAULT_LAMBDA)
            ops.check(checks.check_causal_prefix, model.predict_flat,
                      self.inputs[1].flat(), self.rng, f"{arch} causality")
        for source, receiver in (("tcn", "gru"), ("gru", "tcn")):
            self._check_transfer(sk, ops, self.reports[source][-1], self.models[source],
                                 self.models[receiver], receiver, self.transfers[source])
        self._check_round_trip(ops, self.models, self.loaded, self.inputs[0].flat())
        shutil.rmtree(self.workdir, ignore_errors=True)

    def graph_nodes(self, sk, tracer):
        return _graph_nodes(sk, tracer, self.models, self.inputs[0], self.objectives["tcn"])


def _graph_nodes(sk, tracer, models, seq, objective) -> dict[str, int]:
    """Autodiff nodes one attack step builds: the model graph plus both loss terms."""
    counts = {}
    for arch, model in models.items():
        x = sk.autodiff.Tensor(seq.flat(), requires_grad=True)
        cfg = sk.attack.AttackConfig(target=objective.target, kappa=1.0)
        counts[arch] = tracer.count_nodes(
            lambda: sk.attack.adv_loss(model, x, objective.target.flat(), cfg))
    return counts


# ---------------------------------------------------------------------------
# the command-line pipeline


def _read_checkpoint(path: Path) -> tuple[str, dict, dict]:
    """(arch, config, params) parsed straight from a checkpoint file."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    params = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
              for name, entry in payload["params"].items()}
    return payload["arch"], payload["config"], params


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _reference_flags(checkpoint: Path, sweep: dict) -> dict[tuple[str, float], list[bool]]:
    arch, config, params = _read_checkpoint(checkpoint)
    targets = {o["label"]: np.array(o["target"]) for o in sweep["objectives"]}
    flags = {}
    for cell in sweep["cells"]:
        target = targets[cell["objective"]]
        flags[(cell["objective"], cell["epsilon"])] = [
            reference.distance_sum(reference.forward(arch, config, params, np.array(adv)),
                                   target) < cell["kappa"]
            for adv in cell["adversarial"]]
    return flags


def _check_counts(rows: list[dict], flags: dict, what: str) -> None:
    got = {(r["objective"], float(r["epsilon"])): int(r["successes"]) for r in rows}
    want = {key: sum(value) for key, value in flags.items()}
    checks.require(got == want, f"{what}: counts {got} != reference {want}")


class CliPipeline(Workload):
    """synth -> train tcn, gru -> eval -> transfer -> attack -> export, in process.

    Between commands a probe takes one sample of each training, transfer
    and checkpoint metric on models and a sweep made at set-up from the
    same data, so that those samples spread over the whole run.  The attack
    rates are the commands' own attacks.
    """

    name = "cli-pipeline"
    DETERMINISTIC = ["data/dataset.json", "tcn/model.json", "gru/model.json",
                     "tcn/loss_history.csv", "gru/loss_history.csv",
                     "eval/report.csv", "eval/sweep.json"]

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.epochs = {"tcn": 2, "gru": 2} if quick else {"tcn": 15, "gru": 3}
        self.steps = 2 if quick else 5
        self.probe_epochs = {"tcn": 1, "gru": 1} if quick else {"tcn": 4, "gru": 1}
        self.ckpt_loads = 1 if quick else 3
        self.round_index = 0
        self.first_digests = None
        self.first_histories = None

    def setup(self, sk):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        label = _pick_labels(sk, self.seed, 1)[0]
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps({"eval": {"objectives": [label]},
                                           "attack": {"objective": label,
                                                      "steps": self.steps}}),
                               encoding="utf-8")
        warm = self.workdir / "warm"
        for argv in (["synth", "--seed", str(self.seed), "--out", str(warm / "data")],
                     ["train", "--dataset", str(warm / "data" / "dataset.json"),
                      "--model", "gru", "--epochs", "1", "--out", str(warm / "gru")]):
            self._cli(sk, argv)
        # the probes' models and sweep: the rounds' data, seeded untrained
        # models, a one-step sweep of the eval inputs at two of the grid's ε
        records = sk.data.read_dataset(warm / "data" / "dataset.json")
        shutil.rmtree(warm)
        held = sk.data.DEFAULT_HELD_OUT_SETS
        self.split = sk.data.split_by_sets(records, held)
        inputs = [seq for r in sk.data.held_out_records(records, held)
                  for seq in (r.actor, r.reactor)]
        in_dim = inputs[0].flat().shape[1]
        self.models = {arch: sk.models.create_model(arch, in_dim, preset="tiny", seed=self.seed)
                       for arch in ARCHS}
        objectives = sk.evaluation.make_objectives(
            records, [label], sk.evaluation.DEFAULT_TOLERANCES, seed=self.seed,
            prefer_ids=held)
        self.sweep = sk.evaluation.whitebox_sweep(
            self.models["tcn"], "tcn", inputs, objectives,
            epsilon_grid=list(sk.attack.EPSILON_GRID)[::3],
            base_cfg=sk.attack.AttackConfig(steps=1))

    def _cli(self, sk, argv):
        # the commands' progress lines go to stderr; stdout ends with the result line
        with contextlib.redirect_stdout(sys.stderr):
            return _timed(sk.cli.main, argv + ["--config", str(self.config)])

    def round(self, sk, ops):
        d = self.dir = self.workdir / f"round{self.round_index}"
        self.round_index += 1
        data = str(d / "data" / "dataset.json")
        commands = {
            "synth": ["synth", "--seed", str(self.seed), "--out", str(d / "data")],
            "train-tcn": ["train", "--dataset", data, "--model", "tcn",
                          "--epochs", str(self.epochs["tcn"]), "--seed", str(self.seed),
                          "--out", str(d / "tcn")],
            "train-gru": ["train", "--dataset", data, "--model", "gru",
                          "--epochs", str(self.epochs["gru"]), "--seed", str(self.seed),
                          "--out", str(d / "gru")],
            "eval": ["eval", "--dataset", data, "--model-path", str(d / "tcn" / "model.json"),
                     "--out", str(d / "eval")],
            "transfer-gru": ["transfer", "--sweep", str(d / "eval" / "sweep.json"),
                             "--model-path", str(d / "gru" / "model.json"),
                             "--out", str(d / "transfer-gru")],
            "transfer-tcn": ["transfer", "--sweep", str(d / "eval" / "sweep.json"),
                             "--model-path", str(d / "tcn" / "model.json"),
                             "--out", str(d / "transfer-tcn")],
            "attack": ["attack", "--dataset", data,
                       "--model-path", str(d / "gru" / "model.json"), "--out", str(d / "attack")],
            "export": ["export", "--result", str(d / "attack" / "results" / "result_000.json"),
                       "--model-path", str(d / "gru" / "model.json"), "--out", str(d / "export")],
        }
        self.codes = {}
        self.histories = {arch: [] for arch in ARCHS}
        samples = defaultdict(list)

        # each run_attack call inside `attack` and `eval` (through
        # whitebox_sweep) is one sample of its model's attack rate; the
        # commands' file I/O shows only in pipeline_s
        def attack_rate(args, dt):
            samples[f"attack.{args[0].arch}.steps_per_s"].append(args[2].steps / dt)

        for step, argv in commands.items():
            with _timing(sk.cli, "run_attack", attack_rate), \
                    _timing(sk.evaluation, "run_attack", attack_rate):
                self.codes[step], seconds = self._cli(sk, argv)
            samples[f"stage.{step}_s"].append(seconds)
            self._probe(sk, ops, samples)
        ops.done(len(commands))
        return samples

    def _probe(self, sk, ops, samples):
        """One training of each model, a transfer of the sweep onto each model,
        then one save and a few loads of both models."""
        for arch in ARCHS:
            epochs = self.probe_epochs[arch]
            (_, history), dt = _timed(sk.models.train, _fresh(self.models[arch]), self.split,
                                      sk.models.TrainConfig(epochs=epochs))
            samples[f"train.{arch}.epochs_per_s"].append(epochs / dt)
            self.histories[arch].append(history)
        self.transfers = {}
        for arch in ARCHS:
            self.transfers[arch], dt = _timed(sk.evaluation.blackbox_transfer, self.sweep,
                                              self.models[arch], arch)
            samples[f"predict.{arch}.seqs_per_s"].append(
                sum(len(c.adversarial) for c in self.sweep.cells) / dt)
        ops.done(2 * len(ARCHS))
        self.loaded = self._checkpoint_round_trip(sk, ops, self.models, samples,
                                                  saves=1, loads=self.ckpt_loads)

    def check(self, sk, ops):
        d = self.dir
        for step, code in self.codes.items():
            ops.check(checks.require, code == 0, f"command {step} exited with {code}")
        ops.check(checks.check_no_locks, d)
        for arch in ARCHS:
            lines = (d / arch / "loss_history.csv").read_text(encoding="utf-8").split()[1:]
            ops.check(checks.check_training, [float(x.split(",")[1]) for x in lines],
                      f"{arch} training")
            _, _, params = _read_checkpoint(d / arch / "model.json")
            model = sk.models.load_model(d / arch / "model.json")
            ops.check(checks.check_same_params, params, model.params, f"{arch} checkpoint")
            sk.models.save_model(model, d / arch / "resaved.json")
            ops.check(checks.require, (d / arch / "model.json").read_bytes()
                      == (d / arch / "resaved.json").read_bytes(),
                      f"{arch} checkpoint bytes change on a load/save round trip")

        sweep = json.loads((d / "eval" / "sweep.json").read_text(encoding="utf-8"))
        report = _csv_rows(d / "eval" / "report.csv")
        flags = _reference_flags(d / "tcn" / "model.json", sweep)
        ops.check(checks.check_flags_equal,
                  [flags[(c["objective"], c["epsilon"])] for c in sweep["cells"]],
                  [c["flags"] for c in sweep["cells"]], "sweep.json flags")
        ops.check(_check_counts, report, flags, "report.csv")
        ops.check(_check_counts, _csv_rows(d / "transfer-tcn" / "transfer.csv"), flags,
                  "transfer onto the source")
        ops.check(_check_counts, _csv_rows(d / "transfer-gru" / "transfer.csv"),
                  _reference_flags(d / "gru" / "model.json", sweep), "transfer onto gru")

        arch, config, params = _read_checkpoint(d / "gru" / "model.json")
        for path in sorted((d / "attack" / "results").glob("result_*.json")):
            result = json.loads(path.read_text(encoding="utf-8"))
            natural, adv = np.array(result["natural"]), np.array(result["adversarial"])
            target = np.array(result["target"])
            ref_out = reference.forward(arch, config, params, adv)
            ops.check(checks.check_attack, natural, adv, result["config"]["epsilon"],
                      result["distance_sum"], result["distance_trace"], result["success"],
                      result["config"]["kappa"], ref_out, target, f"attack {path.name}")

        digests = checks.file_digests(d, self.DETERMINISTIC)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            ops.check(checks.check_same_bytes, self.first_digests, digests,
                      f"rerun in {d.name}")
        shutil.rmtree(d)

        # the probes: the same training every time, transfers that follow the
        # reference forward, checkpoints that load what was saved
        if self.first_histories is None:
            self.first_histories = {arch: runs[0] for arch, runs in self.histories.items()}
        for arch, runs in self.histories.items():
            ops.check(checks.require, all(np.isfinite(self.first_histories[arch])),
                      f"{arch} probe training: loss not finite")
            ops.check(checks.require, all(h == self.first_histories[arch] for h in runs),
                      f"{arch}: probe trainings give another loss history")
        self._check_transfer(sk, ops, self.sweep, self.models["tcn"], self.models["gru"], "gru",
                             self.transfers["gru"])
        ops.check(checks.check_flags_equal, [c.flags for c in self.sweep.cells],
                  [c.flags for c in self.transfers["tcn"].cells], "probe transfer onto the source")
        self._check_round_trip(ops, self.models, self.loaded, self.sweep.cells[0].adversarial[0])

    def graph_nodes(self, sk, tracer):
        records = sk.data.synth_generate(seed=self.seed, n_per_category=1)
        models = {arch: sk.models.create_model(arch, records[0].actor.flat().shape[1],
                                               preset="tiny", seed=self.seed)
                  for arch in ARCHS}
        objective = sk.evaluation.Objective("target", records[1].reactor, 1.0)
        return _graph_nodes(sk, tracer, models, records[0].actor, objective)


WORKLOADS = {w.name: w for w in (DeskSweep, FullScale, CliPipeline)}

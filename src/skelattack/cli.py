"""Command-line front end: dataset synthesis, training, attacks, reports.

Every command loads, checks and computes everything first, then creates
the output directory only to write its finished artifacts plus a
manifest.json (command, config snapshot, seed, paths, version,
timestamps), locked while it writes.  So a command that fails leaves no
output directory.  Given the same config and seed, reruns produce
byte-identical datasets, checkpoints and reports.

Config precedence: command-line flags > config file > built-in defaults.
The attack and train defaults are those of AttackConfig and TrainConfig,
and every value is checked before a command creates its output directory.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime
import fcntl
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__
from .attack import (EPSILON_GRID, SETTINGS, AttackConfig, AttackError, result_to_dict,
                     run_attack)
from .data import (CATEGORIES, DEFAULT_HELD_OUT_SETS, SkeletonSequence, array_from_json,
                   atomic_write, held_out_records, read_dataset, read_json, split_by_sets,
                   synth_generate, write_dataset, write_json)
from .evaluation import (DEFAULT_TOLERANCES, blackbox_transfer, fit_target_length,
                         load_sweep, make_objectives, report_rows, save_sweep,
                         transfer_rows, whitebox_sweep, write_csv)
from .models import (GRU_PRESETS, TCN_PRESETS, ModelError, TrainConfig,
                     create_model, load_model, save_model, train)


class CliError(Exception):
    pass


DEFAULT_CONFIG = {
    "data": {
        "seed": 0,
        "per_category": 2,
        "frames": 40,
        "joints": 15,
        "held_out": sorted(DEFAULT_HELD_OUT_SETS),
    },
    "train": {
        "model": "tcn",
        "preset": "tiny",
        **dataclasses.asdict(TrainConfig()),
        "seed": 0,
    },
    "attack": {
        "objective": "punching",
        **{key: getattr(AttackConfig, name) for key, name in SETTINGS.items()},
        "seed": 0,
    },
    "eval": {
        "epsilon_grid": list(EPSILON_GRID),
        "objectives": None,
        "seed": 0,
    },
    "kappa_table": dict(DEFAULT_TOLERANCES),
}

# config keys whose default is null, with a value of the type they take otherwise
_NULLABLE = {"attack.kappa": 0.0, "eval.objectives": list(CATEGORIES)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def load_config(path=None, flags=None) -> dict:
    """Defaults overlaid with a JSON config file, then with `flags`.

    `flags` maps "section.key" to a value.  Unknown keys, values whose JSON
    type is not the default's, and attack or train settings that
    AttackConfig or TrainConfig refuse all raise CliError.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    for section, values in _read_config(path).items():
        if section not in config:
            raise CliError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise CliError(f"config section {section!r} must be an object")
        for key, value in values.items():
            name = f"{section}.{key}"
            if section == "kappa_table":
                _check_type(f"kappa_table[{key!r}]", value, 0.0)
                if value < 0:
                    raise CliError(f"kappa_table[{key!r}] must be >= 0, got {value}")
            elif key not in config[section]:
                raise CliError(f"unknown config key {name}")
            elif not (value is None and name in _NULLABLE):
                _check_type(name, value, _NULLABLE.get(name, DEFAULT_CONFIG[section][key]))
            config[section][key] = value
    for name, value in (flags or {}).items():
        section, key = name.split(".")
        config[section][key] = value
    try:
        base = _attack_settings(config["attack"])
        _train_settings(config["train"])
    except (AttackError, ModelError) as exc:
        raise CliError(f"bad config: {exc}") from None
    for eps in config["eval"]["epsilon_grid"]:
        try:
            dataclasses.replace(base, epsilon=eps)
        except AttackError as exc:
            raise CliError(f"bad config eval.epsilon_grid: {exc}") from None
    return config


def _read_config(path) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from None
    if not text.strip():
        return {}
    try:
        user = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise CliError("config root must be an object")
    return user


def _finite_float(text: str) -> float:
    """The float a config number stands for; NaN, Infinity and 1e999 are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise CliError(f"config holds {text}, which is not a finite number")
    return value


def _check_type(name: str, value, like) -> None:
    """Refuse `value` unless it has the JSON type of `like`.

    An int passes for a float but a bool never passes for a number; a
    list must be non-empty, with every entry of the type of like[0].
    """
    if isinstance(like, list):
        if not isinstance(value, list) or not value:
            raise CliError(f"config key {name} must be a non-empty list, "
                           f"got {json.dumps(value)}")
        for item in value:
            _check_type(f"{name} entry", item, like[0])
    elif not (type(value) is type(like) or (type(like) is float and type(value) is int)):
        raise CliError(f"config key {name} must be {_TYPE_NAMES[type(like)]}, "
                       f"got {json.dumps(value)}")


def _attack_settings(acfg: dict) -> AttackConfig:
    """The attack section as an AttackConfig, with no target yet."""
    return AttackConfig(**{name: acfg[key] for key, name in SETTINGS.items()})


def _train_settings(tcfg: dict) -> TrainConfig:
    return TrainConfig(**{f.name: tcfg[f.name] for f in dataclasses.fields(TrainConfig)})


def _flags(args: argparse.Namespace) -> dict:
    """The override flags given, by config key; --seed sets every section's seed."""
    flags = {key: value for key, value in vars(args).items()
             if "." in key and value is not None}
    if getattr(args, "seed", None) is not None:
        for section in ("data", "train", "attack", "eval"):
            flags[f"{section}.seed"] = args.seed
    return flags


# ---------------------------------------------------------------------------
# artifact plumbing


# the manifest's name for each input-file argument a command may take
_INPUTS = {"dataset": "dataset", "sweep": "sweep", "result": "result", "model_path": "model"}


@contextmanager
def _artifacts(args, config: dict, seed: int):
    """Lock --out for the block; yield it and a list for the names of the outputs.

    A command enters the block only to write results it has finished
    computing, so --out is created, and locked, for the writes alone.  The
    lock is an exclusive flock on out/.lock.  The kernel releases a flock
    when its holder dies, so a killed run leaves at most an unlocked .lock
    file, which the next run takes over.  A block that ends without error
    writes manifest.json, naming the input files and the outputs; on a rerun
    of the command it first removes each other file the old manifest listed.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks the file before it lets go, so the file just
            # locked may no longer be the one at the path: then lock that one
            held = os.path.samestat(os.fstat(fd), os.stat(lock))
        except BlockingIOError:
            os.close(fd)
            raise CliError(f"output directory {out} is locked by another run") from None
        except FileNotFoundError:
            held = False
        if held:
            break
        os.close(fd)
    try:
        outputs: list[str] = []
        yield out, outputs
        inputs = {name: str(getattr(args, arg)) for arg, name in _INPUTS.items()
                  if hasattr(args, arg)}
        old = None
        with suppress(OSError, ValueError, RecursionError):  # unreadable: it lists nothing
            old = json.loads((out / "manifest.json").read_bytes())
        if (isinstance(old, dict) and old.get("command") == args.command
                and isinstance(old.get("outputs"), list)
                and all(isinstance(name, str) for name in old["outputs"])):
            kept = {path.resolve() for path in (lock, *map(Path, inputs.values()))}
            for path in (out / name for name in set(old["outputs"]) - set(outputs)):
                real = path.resolve()  # only files inside --out, never the lock or an input
                if path.is_file() and real.is_relative_to(out.resolve()) and real not in kept:
                    path.unlink()
        manifest = {
            "command": args.command,
            "tool_version": __version__,
            "seed": seed,
            "config": config,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "started_at": args.started_at,
            "finished_at": _now(),
        }
        with atomic_write(out / "manifest.json") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    finally:
        os.unlink(lock)
        os.close(fd)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_test_inputs(dataset_path, held_out) -> tuple[list, list[SkeletonSequence]]:
    records = read_dataset(dataset_path)
    held = held_out_records(records, held_out)
    if not held:
        raise CliError("no held-out records: the test set is empty")
    return records, [seq for record in held for seq in (record.actor, record.reactor)]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, config: dict) -> int:
    dcfg = config["data"]
    records = synth_generate(seed=dcfg["seed"], n_per_category=dcfg["per_category"],
                             frames=dcfg["frames"], joints=dcfg["joints"])
    with _artifacts(args, config, dcfg["seed"]) as (out, outputs):
        write_dataset(records, out / "dataset.json")
        outputs.append("dataset.json")
    print(f"wrote {len(records)} records to {out / 'dataset.json'}")
    return 0


def cmd_train(args, config: dict) -> int:
    tcfg = config["train"]
    records = read_dataset(args.dataset)
    split = split_by_sets(records, config["data"]["held_out"])
    in_dim = split.train[0][0].flat().shape[1]
    model = create_model(tcfg["model"], in_dim, preset=tcfg["preset"], seed=tcfg["seed"])
    model, history = train(model, split, _train_settings(tcfg))
    with _artifacts(args, config, tcfg["seed"]) as (out, outputs):
        save_model(model, out / "model.json")
        write_csv([{"epoch": i, "loss": loss} for i, loss in enumerate(history)],
                  out / "loss_history.csv")
        outputs += ["model.json", "loss_history.csv"]
    print(f"trained {tcfg['model']} for {tcfg['epochs']} epochs; "
          f"final loss {history[-1]:.6g}")
    return 0


def cmd_attack(args, config: dict) -> int:
    acfg = config["attack"]
    records, inputs = _load_test_inputs(args.dataset, config["data"]["held_out"])
    model = load_model(args.model_path)
    objective = make_objectives(records, [acfg["objective"]], config["kappa_table"],
                                seed=acfg["seed"],
                                prefer_ids=config["data"]["held_out"])[0]
    kappa = acfg["kappa"] if acfg["kappa"] is not None else objective.kappa
    base = _attack_settings(acfg)
    payloads = []
    for i, seq in enumerate(inputs):
        target = fit_target_length(objective.target, seq.num_frames)
        cfg = dataclasses.replace(base, target=target, kappa=kappa)
        payload = result_to_dict(run_attack(model, seq, cfg))
        payload.update(objective=objective.label, sample_index=i, natural=seq.flat(),
                       target=target.flat())
        payloads.append(payload)
    with _artifacts(args, config, acfg["seed"]) as (out, outputs):
        (out / "results").mkdir(exist_ok=True)
        for i, payload in enumerate(payloads):
            name = f"results/result_{i:03d}.json"
            write_json(out / name, payload)
            outputs.append(name)
    print(f"attacked {len(inputs)} samples toward {objective.label!r} "
          f"(epsilon={acfg['epsilon']}, kappa={kappa:.4g})")
    return 0


def cmd_eval(args, config: dict) -> int:
    ecfg = config["eval"]
    records, inputs = _load_test_inputs(args.dataset, config["data"]["held_out"])
    model = load_model(args.model_path)
    labels = ecfg["objectives"] if ecfg["objectives"] is not None else list(CATEGORIES)
    objectives = make_objectives(records, labels, config["kappa_table"],
                                 seed=ecfg["seed"],
                                 prefer_ids=config["data"]["held_out"])
    base = _attack_settings(config["attack"])
    model_id = f"{model.arch}:{Path(args.model_path).name}"
    report = whitebox_sweep(model, model_id, inputs, objectives,
                            epsilon_grid=ecfg["epsilon_grid"], base_cfg=base)
    with _artifacts(args, config, ecfg["seed"]) as (out, outputs):
        write_csv(report_rows(report), out / "report.csv")
        save_sweep(report, out / "sweep.json")
        summary = {
            "model": model_id,
            "samples": len(inputs),
            "mean_rate_by_epsilon": {repr(e): report.mean_rate(e)
                                     for e in report.epsilon_grid},
        }
        write_json(out / "summary.json", summary)
        outputs += ["report.csv", "sweep.json", "summary.json"]
    for eps in report.epsilon_grid:
        print(f"epsilon={eps}: mean success rate {report.mean_rate(eps):.3f}")
    return 0


def cmd_transfer(args, config: dict) -> int:
    sweep = load_sweep(args.sweep)
    receiver = load_model(args.model_path)
    receiver_id = f"{receiver.arch}:{Path(args.model_path).name}"
    entry = blackbox_transfer(sweep, receiver, receiver_id)
    with _artifacts(args, config, 0) as (out, outputs):
        write_csv(transfer_rows(entry), out / "transfer.csv")
        outputs.append("transfer.csv")
    rates = [c.rate for c in entry.cells]
    print(f"transfer {sweep.model_id} -> {receiver_id}: "
          f"mean rate {sum(rates) / len(rates):.3f}")
    return 0


def cmd_export(args, config: dict) -> int:
    result = read_json(
        args.result, CliError(f"not an attack result file {args.result}"),
        lambda payload: {key: SkeletonSequence.from_flat(array_from_json(payload[key]))
                         for key in ("natural", "adversarial", "target")})
    model = load_model(args.model_path)
    sequences = {"natural_input": result["natural"], "adversarial_input": result["adversarial"],
                 "target": result["target"], "natural_output": model.predict(result["natural"]),
                 "adversarial_output": model.predict(result["adversarial"])}
    with _artifacts(args, config, 0) as (out, outputs):
        for role, seq in sequences.items():
            name = f"{role}.csv"
            write_csv([{"frame": t, "joint": j, "x": x, "y": y, "depth": d}
                       for t, frame in enumerate(seq.joints.tolist())
                       for j, (x, y, d) in enumerate(frame)], out / name)
            outputs.append(name)
    print(f"exported {len(sequences)} sequences to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as a CliError."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skelattack",
        description="Craft and evaluate targeted attacks on skeleton-interaction regressors.")
    sub = parser.add_subparsers(dest="command", required=True)

    # an override flag's dest is the config key it sets
    def common(p, dataset=False, model_path=False, seed=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="artifact directory")
        if seed:
            p.add_argument("--seed", type=int, help="seed override for every config section")
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset.json path")
        if model_path:
            p.add_argument("--model-path", dest="model_path", required=True,
                           help="model checkpoint path")

    p = sub.add_parser("synth", help="generate a synthetic interaction dataset")
    common(p, seed=True)
    p.add_argument("--per-category", dest="data.per_category", type=int)
    p.add_argument("--frames", dest="data.frames", type=int)
    p.add_argument("--joints", dest="data.joints", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a sequence regressor")
    common(p, dataset=True, seed=True)
    p.add_argument("--model", dest="train.model", choices=("tcn", "gru"))
    p.add_argument("--preset", dest="train.preset",
                   choices=sorted(set(TCN_PRESETS) & set(GRU_PRESETS)))
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--lr", dest="train.lr", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="attack the held-out inputs toward one objective")
    common(p, dataset=True, model_path=True, seed=True)
    p.add_argument("--objective", dest="attack.objective", metavar="LABEL",
                   help="category of the target reaction")
    p.add_argument("--epsilon", dest="attack.epsilon", type=float)
    p.add_argument("--steps", dest="attack.steps", type=int)
    p.add_argument("--lambda", dest="attack.lambda", type=float)
    p.add_argument("--update-rule", dest="attack.update_rule", choices=("pgd", "adam"))
    p.add_argument("--mask", dest="attack.mask", choices=("depth", "all"))
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="white-box success-rate sweep over epsilon")
    common(p, dataset=True, model_path=True, seed=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", help="re-judge a sweep's sequences under another model")
    common(p, model_path=True)
    p.add_argument("--sweep", required=True, help="sweep.json from a previous eval")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("export", help="dump per-frame coordinates for plotting")
    common(p, model_path=True)
    p.add_argument("--result", required=True, help="attack result JSON")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.started_at = _now()
        return args.func(args, load_config(args.config, _flags(args)))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

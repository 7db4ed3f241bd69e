"""Command-line front end: dataset synthesis, training, attacks, reports.

Every command writes its artifacts plus a manifest.json (command, config
snapshot, seed, paths, version, timestamps) into the output directory,
and takes a lock file while writing so two processes cannot race on one
directory.  Given the same config and seed, reruns produce byte-identical
datasets, checkpoints and reports.

Config precedence: command-line flags > config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .attack import EPSILON_GRID, AttackConfig, result_to_dict, run_attack
from .data import (CATEGORIES, DEFAULT_HELD_OUT_SETS, DataError, SkeletonSequence,
                   held_out_records, read_dataset, split_by_sets, synth_generate,
                   write_dataset, write_json)
from .evaluation import (DEFAULT_TOLERANCES, EvaluationError, blackbox_transfer,
                         fit_target_length, load_sweep, make_objectives,
                         report_rows, save_sweep, transfer_rows,
                         whitebox_sweep, write_csv)
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
        "epochs": 1000,
        "lr": 0.001,
        "seed": 0,
    },
    "attack": {
        "objective": "punching",
        "epsilon": 0.45,
        "alpha": 0.03,
        "steps": 400,
        "lambda": 0.1,
        "kappa": None,
        "mask": "depth",
        "update_rule": "pgd",
        "adam_lr": 0.001,
        "seed": 0,
    },
    "eval": {
        "epsilon_grid": list(EPSILON_GRID),
        "objectives": None,
        "seed": 0,
    },
    "kappa_table": dict(DEFAULT_TOLERANCES),
}


def load_config(path=None) -> dict:
    """Defaults overlaid with a JSON config file; unknown keys are rejected."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from None
    if not text.strip():
        return config
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise CliError("config root must be an object")
    for section, values in user.items():
        if section not in config:
            raise CliError(f"unknown config section {section!r}")
        if section == "kappa_table":
            if not isinstance(values, dict):
                raise CliError("kappa_table must map labels to numbers")
            for label, value in values.items():
                if not isinstance(value, (int, float)) or value < 0:
                    raise CliError(f"kappa_table[{label!r}] must be a number >= 0")
            config[section].update(values)
            continue
        if not isinstance(values, dict):
            raise CliError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in config[section]:
                raise CliError(f"unknown config key {section}.{key}")
            config[section][key] = value
    _validate_config(config)
    return config


def _validate_config(config: dict) -> None:
    lam = config["attack"]["lambda"]
    if not (isinstance(lam, (int, float)) and 0.0 <= lam <= 1.0):
        raise CliError(f"attack.lambda must be in [0, 1], got {lam}")
    if config["attack"]["epsilon"] <= 0:
        raise CliError("attack.epsilon must be positive")
    if config["attack"]["steps"] < 1:
        raise CliError("attack.steps must be >= 1")
    if config["train"]["epochs"] < 1:
        raise CliError("train.epochs must be >= 1")
    if config["data"]["frames"] < 2:
        raise CliError("data.frames must be >= 2")
    grid = config["eval"]["epsilon_grid"]
    if not grid or any(e <= 0 for e in grid):
        raise CliError("eval.epsilon_grid must be a list of positive values")
    objectives = config["eval"]["objectives"]
    if objectives is not None:
        unknown = [o for o in objectives if o not in CATEGORIES]
        if unknown:
            raise CliError(f"unknown eval objectives: {unknown}")
    if config["attack"]["objective"] not in CATEGORIES:
        raise CliError(f"unknown attack objective {config['attack']['objective']!r}")


def _apply_flags(config: dict, args: argparse.Namespace) -> None:
    """Overlay explicitly passed flags; None means 'not given'."""
    mapping = {
        "seed": [("data", "seed"), ("train", "seed"), ("attack", "seed"), ("eval", "seed")],
        "per_category": [("data", "per_category")],
        "frames": [("data", "frames")],
        "joints": [("data", "joints")],
        "model": [("train", "model")],
        "preset": [("train", "preset")],
        "epochs": [("train", "epochs")],
        "lr": [("train", "lr")],
        "objective": [("attack", "objective")],
        "epsilon": [("attack", "epsilon")],
        "steps": [("attack", "steps")],
        "update_rule": [("attack", "update_rule")],
        "mask": [("attack", "mask")],
        "lam": [("attack", "lambda")],
    }
    for attr, targets in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            for section, key in targets:
                config[section][key] = value
    _validate_config(config)


# ---------------------------------------------------------------------------
# artifact plumbing


@contextmanager
def _locked_outdir(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(f"output directory {out} is locked by another run") from None
    try:
        yield
    finally:
        os.close(fd)
        os.unlink(lock)


def _write_manifest(out: Path, command: str, config: dict, seed: int,
                    inputs: dict, outputs: list[str], started: str) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "started_at": started,
        "finished_at": _now(),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_test_inputs(dataset_path, held_out) -> tuple[list, list[SkeletonSequence]]:
    records = read_dataset(dataset_path)
    held = held_out_records(records, held_out)
    if not held:
        raise CliError("no held-out records: the test set is empty")
    inputs: list[SkeletonSequence] = []
    for record in held:
        inputs.append(record.actor)
        inputs.append(record.reactor)
    return records, inputs


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    config = load_config(args.config)
    _apply_flags(config, args)
    dcfg = config["data"]
    out = Path(args.out)
    started = _now()
    with _locked_outdir(out):
        records = synth_generate(seed=dcfg["seed"], n_per_category=dcfg["per_category"],
                                 frames=dcfg["frames"], joints=dcfg["joints"])
        write_dataset(records, out / "dataset.json")
        _write_manifest(out, "synth", config, dcfg["seed"], {}, ["dataset.json"], started)
    print(f"wrote {len(records)} records to {out / 'dataset.json'}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    _apply_flags(config, args)
    tcfg = config["train"]
    out = Path(args.out)
    started = _now()
    records = read_dataset(args.dataset)
    split = split_by_sets(records, config["data"]["held_out"])
    in_dim = split.train[0][0].flat().shape[1]
    model = create_model(tcfg["model"], in_dim, preset=tcfg["preset"], seed=tcfg["seed"])
    with _locked_outdir(out):
        model, history = train(model, split,
                               TrainConfig(epochs=tcfg["epochs"], lr=tcfg["lr"],
                                           seed=tcfg["seed"]))
        save_model(model, out / "model.json")
        lines = ["epoch,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(history)]
        (out / "loss_history.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_manifest(out, "train", config, tcfg["seed"],
                        {"dataset": str(args.dataset)},
                        ["model.json", "loss_history.csv"], started)
    print(f"trained {tcfg['model']} for {tcfg['epochs']} epochs; "
          f"final loss {history[-1]:.6g}")
    return 0


def _attack_config(acfg: dict, target, kappa: float) -> AttackConfig:
    return AttackConfig(
        target=target,
        kappa=kappa,
        epsilon=acfg["epsilon"],
        alpha=acfg["alpha"],
        steps=acfg["steps"],
        lam=acfg["lambda"],
        mask=acfg["mask"],
        update_rule=acfg["update_rule"],
        adam_lr=acfg["adam_lr"],
    )


def cmd_attack(args) -> int:
    config = load_config(args.config)
    _apply_flags(config, args)
    acfg = config["attack"]
    out = Path(args.out)
    started = _now()
    model = load_model(args.model_path)
    records, inputs = _load_test_inputs(args.dataset, config["data"]["held_out"])
    objective = make_objectives(records, [acfg["objective"]], config["kappa_table"],
                                seed=acfg["seed"],
                                prefer_ids=config["data"]["held_out"])[0]
    kappa = acfg["kappa"] if acfg["kappa"] is not None else objective.kappa
    outputs = []
    with _locked_outdir(out):
        results_dir = out / "results"
        results_dir.mkdir(exist_ok=True)
        for i, seq in enumerate(inputs):
            target = fit_target_length(objective.target, seq.num_frames)
            cfg = _attack_config(acfg, target, kappa)
            result = run_attack(model, seq, cfg)
            payload = result_to_dict(result)
            payload["objective"] = objective.label
            payload["sample_index"] = i
            payload["natural"] = seq.flat().tolist()
            payload["target"] = target.flat().tolist()
            name = f"results/result_{i:03d}.json"
            write_json(out / name, payload)
            outputs.append(name)
        _write_manifest(out, "attack", config, acfg["seed"],
                        {"dataset": str(args.dataset), "model": str(args.model_path)},
                        outputs, started)
    print(f"attacked {len(inputs)} samples toward {objective.label!r} "
          f"(epsilon={acfg['epsilon']}, kappa={kappa:.4g})")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    _apply_flags(config, args)
    ecfg = config["eval"]
    out = Path(args.out)
    started = _now()
    model = load_model(args.model_path)
    records, inputs = _load_test_inputs(args.dataset, config["data"]["held_out"])
    labels = ecfg["objectives"] if ecfg["objectives"] is not None else list(CATEGORIES)
    objectives = make_objectives(records, labels, config["kappa_table"],
                                 seed=ecfg["seed"],
                                 prefer_ids=config["data"]["held_out"])
    base = _attack_config(config["attack"], None, None)
    model_id = f"{model.arch}:{Path(args.model_path).name}"
    with _locked_outdir(out):
        report = whitebox_sweep(model, model_id, inputs, objectives,
                                epsilon_grid=ecfg["epsilon_grid"], base_cfg=base)
        write_csv(report_rows(report), out / "report.csv")
        save_sweep(report, out / "sweep.json")
        summary = {
            "model": model_id,
            "samples": len(inputs),
            "mean_rate_by_epsilon": {repr(e): report.mean_rate(e)
                                     for e in report.epsilon_grid},
        }
        write_json(out / "summary.json", summary)
        _write_manifest(out, "eval", config, ecfg["seed"],
                        {"dataset": str(args.dataset), "model": str(args.model_path)},
                        ["report.csv", "sweep.json", "summary.json"], started)
    for eps in report.epsilon_grid:
        print(f"epsilon={eps}: mean success rate {report.mean_rate(eps):.3f}")
    return 0


def cmd_transfer(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    started = _now()
    sweep = load_sweep(args.sweep)
    receiver = load_model(args.model_path)
    receiver_id = f"{receiver.arch}:{Path(args.model_path).name}"
    with _locked_outdir(out):
        entry = blackbox_transfer(sweep, receiver, receiver_id)
        write_csv(transfer_rows(entry), out / "transfer.csv")
        _write_manifest(out, "transfer", config, 0,
                        {"sweep": str(args.sweep), "model": str(args.model_path)},
                        ["transfer.csv"], started)
    rates = [c.rate for c in entry.cells]
    print(f"transfer {sweep.model_id} -> {receiver_id}: "
          f"mean rate {sum(rates) / len(rates):.3f}")
    return 0


def _sequence_csv(flat: list[list[float]] | np.ndarray) -> str:
    arr = np.asarray(flat, dtype=np.float64)
    seq = SkeletonSequence.from_flat(arr)
    lines = ["frame,joint,x,y,depth"]
    for t in range(seq.num_frames):
        for j in range(seq.num_joints):
            x, y, d = (repr(float(v)) for v in seq.joints[t, j])
            lines.append(f"{t},{j},{x},{y},{d}")
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    started = _now()
    model = load_model(args.model_path)
    try:
        with open(args.result, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        natural = np.array(payload["natural"], dtype=np.float64)
        adversarial = np.array(payload["adversarial"], dtype=np.float64)
        target = np.array(payload["target"], dtype=np.float64)
    except (json.JSONDecodeError, KeyError) as exc:
        raise CliError(f"not an attack result file: {exc}") from None
    roles = {
        "natural_input": natural,
        "adversarial_input": adversarial,
        "target": target,
        "natural_output": model.predict_flat(natural),
        "adversarial_output": model.predict_flat(adversarial),
    }
    outputs = []
    with _locked_outdir(out):
        for role, arr in roles.items():
            name = f"{role}.csv"
            (out / name).write_text(_sequence_csv(arr), encoding="utf-8")
            outputs.append(name)
        _write_manifest(out, "export", config, 0,
                        {"result": str(args.result), "model": str(args.model_path)},
                        outputs, started)
    print(f"exported {len(roles)} sequences to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelattack",
        description="Craft and evaluate targeted attacks on skeleton-interaction regressors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False, model_path=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, help="seed override")
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset.json path")
        if model_path:
            p.add_argument("--model-path", dest="model_path", required=True,
                           help="model checkpoint path")

    p = sub.add_parser("synth", help="generate a synthetic interaction dataset")
    common(p)
    p.add_argument("--per-category", dest="per_category", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--joints", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a sequence regressor")
    common(p, dataset=True)
    p.add_argument("--model", choices=("tcn", "gru"))
    p.add_argument("--preset", choices=tuple(set(TCN_PRESETS) & set(GRU_PRESETS)))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="attack the held-out inputs toward one objective")
    common(p, dataset=True, model_path=True)
    p.add_argument("--objective", choices=CATEGORIES)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--update-rule", dest="update_rule", choices=("pgd", "adam"))
    p.add_argument("--mask", choices=("depth", "all"))
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="white-box success-rate sweep over epsilon")
    common(p, dataset=True, model_path=True)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, DataError, ModelError, EvaluationError, ValueError,
            RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line pipeline: config handling, artifacts, determinism."""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from skelattack import cli, models
from skelattack.attack import EPSILON_GRID

from tests.helpers import corrupt_checkpoint, zero_kernel_width


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# config ----------------------------------------------------------------------

def test_load_config_defaults_when_missing():
    config = cli.load_config(None)
    assert config["attack"]["alpha"] == 0.03
    assert config["attack"]["steps"] == 400
    assert config["attack"]["lambda"] == 0.1
    assert config["train"]["lr"] == 0.001
    assert config["train"]["epochs"] == 1000
    assert config["eval"]["epsilon_grid"] == list(EPSILON_GRID)
    assert config["eval"]["epsilon_grid"] == [0.075, 0.15, 0.225, 0.3, 0.375, 0.45]


def test_load_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    assert cli.load_config(path) == cli.load_config(None)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"attack": {"alpa": 0.1}}), encoding="utf-8")
    with pytest.raises(cli.CliError, match="unknown config key"):
        cli.load_config(path)
    path.write_text(json.dumps({"attacks": {}}), encoding="utf-8")
    with pytest.raises(cli.CliError, match="unknown config section"):
        cli.load_config(path)


def test_load_config_rejects_lambda_outside_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"attack": {"lambda": 1.5}}), encoding="utf-8")
    with pytest.raises(cli.CliError, match="lambda"):
        cli.load_config(path)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"attack": {"lambda": 0.0, "steps": 7},
                                "kappa_table": {"hugging": 10.0}}), encoding="utf-8")
    config = cli.load_config(path)
    assert config["attack"]["lambda"] == 0.0
    assert config["attack"]["steps"] == 7
    assert config["kappa_table"]["hugging"] == 10.0
    assert config["kappa_table"]["punching"] == 52.04


def input_flags(command, workspace):
    """The input-file flags `command` needs, pointing into the workspace."""
    root, _ = workspace
    dataset = ["--dataset", str(root / "data" / "dataset.json")]
    model = ["--model-path", str(root / "tcn" / "model.json")]
    return {"synth": [], "train": dataset, "attack": dataset + model,
            "eval": dataset + model}[command]


def refused_before_out(argv, out, capsys):
    """Whether argv exits 2 with one error: line and without creating `out`."""
    return (run(argv + ["--out", str(out)]) == 2 and single_error_line(capsys)
            and not out.exists())


BAD_CONFIGS = [
    ("synth", {"attack": {"epsilon": "x"}}),
    ("train", {"train": {"epochs": "5"}}),
    ("attack", {"data": {"held_out": 5}}),
    ("eval", {"eval": {"epsilon_grid": 5}}),
    ("synth", {"data": {"frames": None}}),
    ("train", {"train": {"preset": "huge"}}),
    ("synth", {"data": {"joints": 0}}),
    ("attack", {"attack": {"mask": "foo"}}),
    ("attack", {"attack": {"kappa": -1}}),
    ("attack", {"attack": {"update_rule": "sgd"}}),
    ("eval", {"eval": {"epsilon_grid": ["a"]}}),
    ("eval", {"attack": {"steps": 2.5}}),
    ("attack", {"attack": {"lambda": True}}),
    ("attack", {"attack": {"alpha": float("nan")}}),
    ("eval", {"eval": {"epsilon_grid": [0.45, 0.45]}}),
    ("eval", {"eval": {"objectives": ["kicking", "kicking"]}}),
    ("attack", {"data": {"held_out": ["s01s02", "s03s04", "s01s02"]}}),
]


@pytest.mark.parametrize("command,config", BAD_CONFIGS,
                         ids=[f"{c}-{json.dumps(v)}" for c, v in BAD_CONFIGS])
def test_bad_config_value_fails_before_out_exists(command, config, workspace, tmp_path,
                                                  capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert refused_before_out([command, "--config", str(path)] + input_flags(command, workspace),
                              tmp_path / "out", capsys)


@pytest.mark.parametrize("argv", [["synth", "--frames", "1"],
                                  ["train", "--epochs", "0"],
                                  ["train", "--lr", "inf"],
                                  ["attack", "--epsilon", "nan"],
                                  ["attack", "--epsilon", "inf"]])
def test_bad_flag_value_fails_before_out_exists(argv, workspace, tmp_path, capsys):
    assert refused_before_out(argv + input_flags(argv[0], workspace), tmp_path / "out", capsys)


@pytest.mark.parametrize("command,text", [("eval", '{"kappa_table": {"punching": 1e999}}'),
                                          ("attack", '{"attack": {"alpha": 1e999}}')])
def test_config_number_that_overflows_fails_before_out_exists(command, text, workspace,
                                                              tmp_path, capsys):
    # the text parses to infinity, which would be written as Infinity
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert refused_before_out([command, "--config", str(path)] + input_flags(command, workspace),
                              tmp_path / "out", capsys)


@pytest.mark.parametrize("command,config", [("attack", {"attack": {"objective": "waving"}}),
                                            ("eval", {"eval": {"objectives": ["waving"]}})])
def test_unknown_objective_fails_before_out_exists(command, config, workspace, tmp_path,
                                                   capsys):
    # refused by make_objectives, which runs before the output directory is made
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert refused_before_out([command, "--config", str(path)] + input_flags(command, workspace),
                              tmp_path / "out", capsys)


def test_objective_flag_refuses_absent_label_before_out_exists(workspace, tmp_path, capsys):
    argv = ["attack", "--objective", "waving"] + input_flags("attack", workspace)
    assert refused_before_out(argv, tmp_path / "out", capsys)


def test_objective_flag_takes_any_label_the_dataset_holds(workspace, tmp_path):
    # a capture file parse_sbu_file cannot name gets the category "unknown"
    root, cfg_path = workspace
    payload = read_json(root / "data" / "dataset.json")
    for record in payload["records"]:
        record["category"] = "unknown"
    dataset = tmp_path / "unknown.json"
    dataset.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "attack"
    assert run(["attack", "--config", str(cfg_path), "--dataset", str(dataset),
                "--model-path", str(root / "tcn" / "model.json"),
                "--objective", "unknown", "--steps", "1", "--out", str(out)]) == 0
    assert read_json(out / "results" / "result_000.json")["objective"] == "unknown"


@pytest.mark.parametrize("argv", [["train", "--out", "x"], ["bogus"]],
                         ids=["missing-argument", "unknown-command"])
def test_usage_error_is_one_error_line(argv, capsys):
    assert run(argv) == 2
    assert single_error_line(capsys)


def test_help_prints_usage_and_exits_zero(capsys):
    assert run(["attack", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: skelattack attack") and not captured.err


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_diverging_train_prints_one_error_line(arch, workspace, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--model", arch, "--epochs", "2", "--lr", "1e160"]
                   + input_flags("train", workspace) + ["--out", str(tmp_path / "out")])
    assert code == 2 and single_error_line(capsys)
    assert [str(w.message) for w in caught] == []


def test_seed_flag_only_where_a_seed_is_read(capsys):
    for argv in (["transfer", "--sweep", "s"], ["export", "--result", "r"]):
        assert run(argv + ["--seed", "1", "--out", "x", "--model-path", "m"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


# pipeline --------------------------------------------------------------------

CFG = {
    "data": {"per_category": 1, "frames": 6, "joints": 3,
             "held_out": ["s03s04"]},
    "train": {"epochs": 8, "preset": "tiny"},
    "attack": {"steps": 6, "objective": "kicking"},
    "eval": {"epsilon_grid": [0.15, 0.45], "objectives": ["kicking", "hugging"]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CFG), encoding="utf-8")
    assert run(["synth", "--config", str(cfg_path), "--seed", "5",
                "--out", str(root / "data")]) == 0
    assert run(["train", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model", "tcn", "--out", str(root / "tcn")]) == 0
    return root, cfg_path


def test_synth_deterministic_bytes(tmp_path, workspace):
    root, cfg_path = workspace
    for out in ("a", "b"):
        assert run(["synth", "--config", str(cfg_path), "--seed", "7",
                    "--per-category", "2", "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "a" / "dataset.json").read_bytes()
    b = (tmp_path / "b" / "dataset.json").read_bytes()
    assert a == b


def test_synth_writes_manifest(workspace):
    root, _ = workspace
    manifest = read_json(root / "data" / "manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == ["dataset.json"]
    assert "started_at" in manifest and "finished_at" in manifest
    assert not (root / "data" / ".lock").exists()


def test_train_artifacts(workspace):
    root, _ = workspace
    assert (root / "tcn" / "model.json").exists()
    history = (root / "tcn" / "loss_history.csv").read_text(encoding="utf-8")
    lines = history.strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 1 + CFG["train"]["epochs"]


def test_attack_writes_results_with_success_flag(workspace, tmp_path):
    root, cfg_path = workspace
    out = tmp_path / "attack"
    assert run(["attack", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--objective", "hugging", "--epsilon", "0.45",
                "--out", str(out)]) == 0
    results = sorted((out / "results").glob("result_*.json"))
    assert len(results) == 2  # one held-out record, both directions
    payload = read_json(results[0])
    assert isinstance(payload["success"], bool)
    assert payload["objective"] == "hugging"
    assert payload["config"]["epsilon"] == 0.45
    assert len(payload["loss_trace"]) == CFG["attack"]["steps"] + 1
    nat = np.array(payload["natural"])
    adv = np.array(payload["adversarial"])
    assert np.max(np.abs(adv - nat)) <= 0.45


def test_eval_and_transfer_pipeline(workspace, tmp_path):
    root, cfg_path = workspace
    out = tmp_path / "eval"
    assert run(["eval", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(out)]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "model,objective,epsilon,successes,samples,rate"
    assert len(report) == 1 + 2 * 2  # objectives x epsilons
    summary = read_json(out / "summary.json")
    assert set(summary["mean_rate_by_epsilon"]) == {"0.15", "0.45"}

    tout = tmp_path / "transfer"
    assert run(["transfer", "--sweep", str(out / "sweep.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(tout)]) == 0
    rows = (tout / "transfer.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "source,receiver,objective,epsilon,successes,samples,rate"
    # identical source and receiver: rates match the white-box report
    wb = {tuple(r.split(",")[1:3]): r.split(",")[-1] for r in report[1:]}
    tr = {tuple(r.split(",")[2:4]): r.split(",")[-1] for r in rows[1:]}
    assert wb == tr


def test_export_writes_sequence_csvs(workspace, tmp_path):
    root, cfg_path = workspace
    att = tmp_path / "att"
    assert run(["attack", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(att)]) == 0
    out = tmp_path / "export"
    assert run(["export", "--result", str(att / "results" / "result_000.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(out)]) == 0
    result = read_json(att / "results" / "result_000.json")
    model = models.load_model(root / "tcn" / "model.json")
    natural = np.array(result["natural"])
    adversarial = np.array(result["adversarial"])
    expected = {"natural_input": natural, "adversarial_input": adversarial,
                "target": np.array(result["target"]),
                "natural_output": model.predict_flat(natural),
                "adversarial_output": model.predict_flat(adversarial)}
    for role, flat in expected.items():
        text = (out / f"{role}.csv").read_text(encoding="utf-8").splitlines()
        assert text[0] == "frame,joint,x,y,depth"
        assert len(text) == 1 + CFG["data"]["frames"] * CFG["data"]["joints"]
        coords = np.array([[float(v) for v in line.split(",")[2:]] for line in text[1:]])
        assert np.array_equal(coords, flat.reshape(-1, 3))


def test_eval_empty_test_set_fails(workspace, tmp_path):
    root, cfg_path = workspace
    bad_cfg = tmp_path / "bad.json"
    cfg = dict(CFG)
    cfg["data"] = dict(CFG["data"], held_out=["s99s99"])
    bad_cfg.write_text(json.dumps(cfg), encoding="utf-8")
    code = run(["eval", "--config", str(bad_cfg),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(tmp_path / "nope")])
    assert code != 0


def test_unknown_flag_nonzero_exit(capsys):
    assert run(["synth", "--frobnicate", "1", "--out", "/tmp/x"]) == 2
    assert single_error_line(capsys)


def test_missing_file_nonzero_exit(tmp_path, capsys):
    code = run(["train", "--dataset", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_locked_directory_rejected(workspace, tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    root, cfg_path = workspace
    holder = os.open(out, os.O_RDONLY)  # a running holder's lock
    try:
        fcntl.flock(holder, fcntl.LOCK_EX)
        code = run(["synth", "--config", str(cfg_path), "--out", str(out)])
    finally:
        os.close(holder)
    assert code != 0
    assert not (out / "dataset.json").exists()


@contextmanager
def lock_held_elsewhere(out):
    """Hold the flock on `out` in a subprocess, which is SIGKILLed when the block ends."""
    script = ("import fcntl, os, sys, time; fd = os.open(sys.argv[1], os.O_RDONLY); "
              "fcntl.flock(fd, fcntl.LOCK_EX); print('locked', flush=True); time.sleep(300)")
    with subprocess.Popen([sys.executable, "-c", script, str(out)], stdout=subprocess.PIPE,
                          text=True) as holder:
        try:
            assert holder.stdout.readline() == "locked\n"
            yield
        finally:
            holder.kill()


def test_lock_of_a_killed_holder_does_not_block(workspace, tmp_path):
    out = tmp_path / "killed"
    out.mkdir()
    root, cfg_path = workspace
    argv = ["synth", "--config", str(cfg_path), "--out", str(out)]
    with lock_held_elsewhere(out):
        assert run(argv) == 2
    assert run(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["dataset.json", "manifest.json"]


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m skelattack.cli` runs main() through entrypoint() and sys.exit
    out = tmp_path / "data"
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def synth():
        return subprocess.run([sys.executable, "-m", "skelattack.cli", "synth",
                               "--per-category", "1", "--frames", "4", "--joints", "2",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)

    with lock_held_elsewhere(out):
        locked = synth()
    assert locked.returncode == 2
    lines = locked.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "locked" in lines[0]
    assert not (out / "dataset.json").exists()
    assert synth().returncode == 0
    assert (out / "dataset.json").exists()


def test_manifest_write_failing_part_way_leaves_previous_manifest(tmp_path):
    args = argparse.Namespace(command="synth", out=str(tmp_path), started_at="t0")
    with cli._artifacts(args, {"data": {}}, 0) as (_, outputs):
        outputs.append("dataset.json")
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(TypeError):  # fails while the manifest is encoded
        with cli._artifacts(args, {"data": object()}, 0):
            pass
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def rerun_attack_on_fewer_records(workspace, tmp_path, export_between):
    """Attack into one --out twice, the second time on fewer held-out records.

    A rerun used to leave the first run's extra result files beside its
    own, where export would read them; a file that is no result stays.
    """
    root, cfg_path = workspace
    out = tmp_path / "att"
    model = ["--model-path", str(root / "tcn" / "model.json")]
    argv = ["attack", "--dataset", str(root / "data" / "dataset.json"), *model,
            "--out", str(out)]
    wide = tmp_path / "wide.json"
    held_out = {"held_out": ["s01s02", "s03s04"]}
    wide.write_text(json.dumps({**CFG, "data": {**CFG["data"], **held_out}}), encoding="utf-8")
    assert run(argv + ["--config", str(wide)]) == 0
    assert len(list((out / "results").iterdir())) == 6
    (out / "results" / "notes.txt").write_text("mine", encoding="utf-8")
    if export_between:
        assert run(["export", "--result", str(out / "results" / "result_005.json"), *model,
                    "--out", str(out)]) == 0
    assert run(argv + ["--config", str(cfg_path)]) == 0
    written = sorted(f"results/{p.name}" for p in (out / "results").glob("result_*"))
    assert written == read_json(out / "manifest.json")["outputs"]
    assert written == ["results/result_000.json", "results/result_001.json"]
    assert (out / "results" / "notes.txt").read_text(encoding="utf-8") == "mine"


def test_rerun_into_same_out_removes_results_it_did_not_write(workspace, tmp_path):
    rerun_attack_on_fewer_records(workspace, tmp_path, export_between=False)


def test_rerun_after_export_into_same_out_removes_results_it_did_not_write(workspace,
                                                                           tmp_path):
    # export's manifest, which names no result, replaces the first attack's
    rerun_attack_on_fewer_records(workspace, tmp_path, export_between=True)


def test_commands_sharing_one_out_keep_each_others_files(workspace, tmp_path):
    # one directory per experiment: each command reads what the one before it
    # wrote there, and a command's rerun cleanup must not touch those files
    root, cfg_path = workspace
    out = tmp_path / "exp"
    model = ["--model-path", str(out / "model.json")]
    common = ["--config", str(cfg_path), "--out", str(out)]
    steps = [["synth"], ["train", "--dataset", str(out / "dataset.json")],
             ["eval", "--dataset", str(out / "dataset.json"), *model],
             ["transfer", "--sweep", str(out / "sweep.json"), *model],
             ["attack", "--dataset", str(out / "dataset.json"), *model],
             ["export", "--result", str(out / "results" / "result_000.json"), *model]]
    for argv in steps:
        assert run(argv + common) == 0
    names = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*"))
    assert names == ["adversarial_input.csv", "adversarial_output.csv", "dataset.json",
                     "loss_history.csv", "manifest.json", "model.json",
                     "natural_input.csv", "natural_output.csv", "report.csv",
                     "results/result_000.json", "results/result_001.json", "summary.json",
                     "sweep.json", "target.csv", "transfer.csv"]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the attack's repeat stop compares iterates bit for bit, so a forward
    # must not change with the number of BLAS threads
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CFG), encoding="utf-8")

    def pipeline(threads):
        out = tmp_path / f"threads{threads}"
        data = ["--dataset", str(out / "data" / "dataset.json")]
        steps = [["synth", "--out", str(out / "data")],
                 ["train", *data, "--model", "tcn", "--out", str(out / "tcn")],
                 ["train", *data, "--model", "gru", "--out", str(out / "gru")],
                 ["train", *data, "--model", "tcn", "--preset", "full", "--epochs", "1",
                  "--out", str(out / "tcn_full")],
                 ["eval", *data, "--model-path", str(out / "tcn" / "model.json"),
                  "--out", str(out / "eval")],
                 ["attack", *data, "--model-path", str(out / "gru" / "model.json"),
                  "--out", str(out / "attack")]]
        script = ("import json, sys; from skelattack import cli; "
                  "sys.exit(not all(cli.main(argv) == 0 for argv in json.loads(sys.argv[1])))")
        argvs = [argv + ["--config", str(cfg_path)] for argv in steps]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, check=True,
                       timeout=300)
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"}

    one, two = pipeline(1), pipeline(2)
    assert len(one) == 12 and one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


def test_lambda_zero_disables_temporal_term(workspace, tmp_path):
    # with the temporal term off, a constant-in-time perturbation pattern is
    # not penalized; just verify the flag plumbs through to the result echo
    root, cfg_path = workspace
    out = tmp_path / "lam0"
    assert run(["attack", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(root / "tcn" / "model.json"),
                "--lambda", "0.0", "--out", str(out)]) == 0
    payload = read_json(next((out / "results").glob("*.json")))
    assert payload["config"]["lambda"] == 0.0


def single_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("arch,name,shape", [("tcn", "head_b", None),
                                             ("gru", "gru0_u", (4, 12))])
def test_checkpoint_not_fitting_its_config_fails_closed(arch, name, shape, workspace,
                                                        tmp_path, capsys):
    root, cfg_path = workspace
    path = tmp_path / "model.json"
    models.save_model(models.create_model(arch, 3 * CFG["data"]["joints"], seed=1), path)
    corrupt_checkpoint(path, name, shape)
    assert run(["attack", "--config", str(cfg_path),
                "--dataset", str(root / "data" / "dataset.json"),
                "--model-path", str(path), "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys)


def test_transfer_of_malformed_sweep_fails_closed(workspace, tmp_path, capsys):
    root, cfg_path = workspace
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"model_id": "tcn", "epsilon_grid": [0.45], "cells": []}),
                     encoding="utf-8")
    assert run(["transfer", "--sweep", str(sweep),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys)


# non-finite values in the files a command reads ---------------------------------

def tiny_sweep(adversarial):
    """A one-cell sweep file payload over the workspace's 6 x 9 sequences."""
    target = np.full_like(adversarial, 0.5)
    return {"model_id": "tcn", "epsilon_grid": [0.45],
            "objectives": [{"label": "kicking", "kappa": 1.0, "target": target.tolist()}],
            "cells": [{"objective": "kicking", "epsilon": 0.45, "kappa": 1.0,
                       "flags": [False], "sums": [1.0],
                       "adversarial": [adversarial.tolist()]}]}


SEQUENCE_SHAPE = (CFG["data"]["frames"], 3 * CFG["data"]["joints"])


def test_dataset_with_non_finite_coordinate_fails_closed(workspace, tmp_path, capsys):
    # the NaN sits in a held-out record, which training alone never reads
    root, cfg_path = workspace
    payload = read_json(root / "data" / "dataset.json")
    held = [r for r in payload["records"] if r["set_id"] in CFG["data"]["held_out"]]
    held[0]["actor"][2][1] = float("nan")
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run(["train", "--config", str(cfg_path), "--dataset", str(path),
                "--model", "tcn", "--epochs", "1", "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys)
    assert not (tmp_path / "out" / "model.json").exists()


def test_checkpoint_with_non_finite_parameter_fails_closed(workspace, tmp_path, capsys):
    root, _ = workspace
    payload = read_json(root / "tcn" / "model.json")
    payload["params"]["head_b"]["data"][0] = float("nan")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(tiny_sweep(np.full(SEQUENCE_SHAPE, 0.4))), encoding="utf-8")
    assert run(["transfer", "--sweep", str(sweep), "--model-path", str(path),
                "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys)
    assert not (tmp_path / "out" / "transfer.csv").exists()


def test_sweep_with_non_finite_sequence_fails_closed(workspace, tmp_path, capsys):
    root, _ = workspace
    adversarial = np.full(SEQUENCE_SHAPE, 0.4)
    adversarial[3, 2] = np.inf
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(tiny_sweep(adversarial)), encoding="utf-8")
    assert run(["transfer", "--sweep", str(sweep),
                "--model-path", str(root / "tcn" / "model.json"),
                "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys)
    assert not (tmp_path / "out" / "transfer.csv").exists()


# malformed input files ---------------------------------------------------------

def tiny_result(width=SEQUENCE_SHAPE[1]):
    """The part of an attack result file that export reads, over 6-frame sequences."""
    seq = np.full((SEQUENCE_SHAPE[0], width), 0.4).tolist()
    return {"natural": seq, "adversarial": seq, "target": seq}


def edit(*keys, value=None, delete=False):
    """An edit that sets (or deletes) the entry at `keys` of a JSON payload."""
    def apply(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        if delete:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return json.dumps(payload).encode("utf-8")
    return apply


def fixed(raw):
    """An edit that ignores the payload and gives the bytes `raw`."""
    return lambda payload: raw


NOT_UTF8 = b'{"records": "\xe9t\xe9"}'

# (id, file kind, edit of the kind's valid payload into the file's bytes)
PROBES = [
    ("dataset-not-utf8", "dataset", fixed(NOT_UTF8)),
    ("dataset-not-json", "dataset", fixed(b"{not json")),
    ("dataset-root-list", "dataset", fixed(b"[1, 2, 3]")),
    ("dataset-records-number", "dataset", edit("records", value=5)),
    ("dataset-records-of-numbers", "dataset", edit("records", value=[1])),
    ("dataset-record-without-actor", "dataset", edit("records", 0, "actor", delete=True)),
    ("dataset-nan-coordinate", "dataset", edit("records", 0, "actor", 0, 0, value=math.nan)),
    ("dataset-string-coordinate", "dataset", edit("records", 0, "actor", 0, 0, value="0.5")),
    ("dataset-boolean-coordinates", "dataset",
     edit("records", 0, "actor", value=[[True] * SEQUENCE_SHAPE[1]] * SEQUENCE_SHAPE[0])),
    ("checkpoint-not-utf8", "checkpoint", fixed(NOT_UTF8)),
    ("checkpoint-truncated", "checkpoint", lambda p: json.dumps(p).encode("utf-8")[:200]),
    ("checkpoint-params-list", "checkpoint", edit("params", value=[1])),
    ("checkpoint-config-number", "checkpoint", edit("config", value=5)),
    ("checkpoint-nan-parameter", "checkpoint", edit("params", "head_b", "data", 0,
                                                    value=math.nan)),
    ("checkpoint-400-digit-parameter", "checkpoint", edit("params", "head_b", "data", 0,
                                                          value=10 ** 400)),
    ("checkpoint-string-parameter", "checkpoint", edit("params", "head_b", "data", 0,
                                                       value="0.5")),
    ("sweep-not-json", "sweep", fixed(b'{"cells": [}')),
    ("sweep-nan-kappa", "sweep", edit("cells", 0, "kappa", value=math.nan)),
    ("sweep-string-epsilon", "sweep", edit("cells", 0, "epsilon", value="0.45")),
    ("sweep-unknown-objective", "sweep", edit("cells", 0, "objective", value="waving")),
    ("sweep-cell-kappa-1e9", "sweep",
     lambda p: edit("cells", 0, value={**p["cells"][0], "kappa": 1e9, "flags": [True]})(p)),
    ("sweep-no-cells", "sweep", edit("cells", value=[])),
    ("sweep-repeated-epsilon", "sweep",  # the one-cell sweep's epsilon and cell, twice
     lambda p: json.dumps({**p, "epsilon_grid": p["epsilon_grid"] * 2,
                           "cells": p["cells"] * 2}).encode("utf-8")),
    ("sweep-string-flags", "sweep", edit("cells", 0, "flags", value=["false"])),
    ("sweep-1d-adversarial", "sweep", edit("cells", 0, "adversarial", 0,
                                           value=[0.4] * SEQUENCE_SHAPE[1])),
    ("sweep-string-adversarial", "sweep", edit("cells", 0, "adversarial", 0, 2, 1, value="0.4")),
    ("result-root-list", "result", fixed(b"[]")),
    ("result-nan-natural", "result", edit("natural", 2, 1, value=math.nan)),
    ("result-string-natural", "result", edit("natural", 2, 1, value="0.4")),
    ("result-without-adversarial", "result", edit("adversarial", delete=True)),
]


def probe_argv(kind, path, workspace, tmp_path):
    """The command that reads a file of `kind` at `path`; every other input is valid."""
    root, cfg_path = workspace
    model = str(root / "tcn" / "model.json")
    if kind == "dataset":
        return ["train", "--config", str(cfg_path), "--dataset", str(path), "--epochs", "1"]
    if kind == "checkpoint":
        sweep = tmp_path / "valid_sweep.json"
        sweep.write_text(json.dumps(tiny_sweep(np.full(SEQUENCE_SHAPE, 0.4))), encoding="utf-8")
        return ["transfer", "--sweep", str(sweep), "--model-path", str(path)]
    if kind == "sweep":
        return ["transfer", "--sweep", str(path), "--model-path", model]
    return ["export", "--result", str(path), "--model-path", model]


def valid_payload(kind, workspace):
    root, _ = workspace
    if kind == "dataset":
        return read_json(root / "data" / "dataset.json")
    if kind == "checkpoint":
        return read_json(root / "tcn" / "model.json")
    if kind == "sweep":
        return tiny_sweep(np.full(SEQUENCE_SHAPE, 0.4))
    return tiny_result()


@pytest.mark.parametrize("kind,make", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_malformed_input_file_fails_closed(kind, make, workspace, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(make(valid_payload(kind, workspace)))
    assert refused_before_out(probe_argv(kind, path, workspace, tmp_path),
                              tmp_path / "out", capsys)


def argv_with_model(command, model_path, workspace, tmp_path):
    """`command` reading the checkpoint at `model_path`; every other input is valid."""
    if command in ("attack", "eval"):
        return [command] + input_flags(command, workspace)[:2] + ["--model-path", str(model_path)]
    kind = "sweep" if command == "transfer" else "result"
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(valid_payload(kind, workspace)), encoding="utf-8")
    argv = probe_argv(kind, path, workspace, tmp_path)
    argv[argv.index("--model-path") + 1] = str(model_path)
    return argv


@pytest.mark.parametrize("command", ["attack", "eval", "transfer", "export"])
def test_model_of_another_input_width_fails_before_out_exists(command, workspace, tmp_path,
                                                              capsys):
    narrow = tmp_path / "narrow.json"
    models.save_model(models.create_model("tcn", 6, seed=1), narrow)
    assert refused_before_out(argv_with_model(command, narrow, workspace, tmp_path),
                              tmp_path / "out", capsys)


@pytest.mark.parametrize("command", ["attack", "eval", "transfer", "export"])
def test_model_with_overflowing_output_fails_before_out_exists(command, workspace, tmp_path,
                                                               capsys):
    root, _ = workspace
    model = models.load_model(root / "tcn" / "model.json")
    model.params = {name: p * 1e200 for name, p in model.params.items()}
    loud = tmp_path / "loud.json"
    models.save_model(model, loud)
    argv = argv_with_model(command, loud, workspace, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert refused_before_out(argv, tmp_path / "out", capsys)
    assert [str(w.message) for w in caught] == []


# compute, then write ------------------------------------------------------------

# the step of each command that computes its results, by where the command finds it
COMPUTE_STEPS = {"synth": (cli, "synth_generate"), "train": (cli, "train"),
                 "attack": (cli, "run_attack"), "eval": (cli, "whitebox_sweep"),
                 "transfer": (cli, "blackbox_transfer"),
                 "export": (models.SequenceRegressor, "predict")}


@pytest.mark.parametrize("command", list(COMPUTE_STEPS))
def test_failing_compute_leaves_no_out(command, workspace, tmp_path, capsys, monkeypatch):
    root, cfg_path = workspace
    argv = ([command] + input_flags(command, workspace) if command in ("synth", "train")
            else argv_with_model(command, root / "tcn" / "model.json", workspace, tmp_path))

    def fail(*args, **kwargs):
        raise RuntimeError("the compute step failed")
    monkeypatch.setattr(*COMPUTE_STEPS[command], fail)
    assert refused_before_out(argv + ["--config", str(cfg_path)], tmp_path / "out", capsys)


@pytest.mark.parametrize("command", ["attack", "eval"])
def test_checkpoint_with_zero_kernel_width_fails_before_out_exists(command, workspace,
                                                                   tmp_path, capsys):
    root, cfg_path = workspace
    path = tmp_path / "model.json"
    path.write_bytes((root / "tcn" / "model.json").read_bytes())
    zero_kernel_width(path)
    argv = argv_with_model(command, path, workspace, tmp_path) + ["--config", str(cfg_path)]
    assert refused_before_out(argv, tmp_path / "out", capsys)


def edited_dataset(workspace, tmp_path, edit_record):
    """The workspace dataset with `edit_record(index, record)` applied to each record."""
    payload = valid_payload("dataset", workspace)
    for i, record in enumerate(payload["records"]):
        edit_record(i, record)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["attack", "eval"])
def test_one_frame_sequences_with_temporal_term_fail_before_out_exists(command, workspace,
                                                                       tmp_path, capsys):
    # the temporal term (default lambda 0.1) needs two frames
    def first_frame(i, record):
        record["actor"], record["reactor"] = record["actor"][:1], record["reactor"][:1]
    root, cfg_path = workspace
    argv = [command, "--config", str(cfg_path),
            "--dataset", edited_dataset(workspace, tmp_path, first_frame),
            "--model-path", str(root / "tcn" / "model.json")]
    assert refused_before_out(argv, tmp_path / "out", capsys)


def test_dataset_of_mixed_skeleton_sizes_fails_train_before_out_exists(workspace, tmp_path,
                                                                       capsys):
    # record 0 is a training record: the model is built for its two joints
    def two_joints_first(i, record):
        if i == 0:
            for role in ("actor", "reactor"):
                record[role] = [frame[:6] for frame in record[role]]
    _, cfg_path = workspace
    argv = ["train", "--config", str(cfg_path),
            "--dataset", edited_dataset(workspace, tmp_path, two_joints_first)]
    assert refused_before_out(argv, tmp_path / "out", capsys)

"""The package names that the benchmark's tracer and workloads patch by name,
and the artifact keys that its workloads read.

bench/tracing.py imports only the standard library, so it is loaded here
from its file, unchanged.  A rename in the package that would break
`bench/run.py --trace 1` or the cli-pipeline attack timing fails here.
bench/workloads.py parses checkpoints, sweeps and attack results with
json and numpy alone; a change of those keys or layouts fails here too.
"""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import skelattack
from skelattack import autodiff, cli, evaluation, models

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_op_and_function_exists():
    tracing = load_tracing()
    assert [op for op, attr in tracing.OP_FUNCTIONS.items()
            if not callable(getattr(autodiff, attr, None))] == []
    assert [(module, attr) for module, attr, _ in tracing.FUNCTIONS
            if not callable(getattr(getattr(skelattack, module), attr, None))] == []


def test_every_package_name_the_benchmark_reads_exists():
    # bench/*.py reach the package as `sk.<module>.<name>`; a name deleted or
    # inlined in the package (a default constant, say) would crash the benchmark
    refs = {match for path in TRACING.parent.glob("*.py")
            for match in re.findall(r"\bsk\.([a-z_]+)\.([A-Za-z_]+)",
                                    path.read_text(encoding="utf-8"))}
    assert refs
    assert sorted((module, name) for module, name in refs
                  if not hasattr(importlib.import_module(f"skelattack.{module}"), name)) == []


def test_patched_names_exist():
    # bench/workloads.py times run_attack where cli and evaluation bound it,
    # and the tracer wraps these methods and models.train
    assert cli.run_attack is evaluation.run_attack is skelattack.attack.run_attack
    for owner, attr in ((models.SequenceRegressor, "predict_flat"),
                        (models.TcnRegressor, "build_graph"),
                        (models.GruRegressor, "build_graph"), (models, "train")):
        assert callable(vars(owner).get(attr)), (owner, attr)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    config = root / "config.json"
    config.write_text(json.dumps({
        "data": {"per_category": 1, "frames": 4, "joints": 2, "held_out": ["s03s04"]},
        "train": {"epochs": 2}, "attack": {"steps": 2, "objective": "kicking"},
        "eval": {"epsilon_grid": [0.3], "objectives": ["kicking"]}}), encoding="utf-8")
    data = str(root / "data" / "dataset.json")
    model = str(root / "tcn" / "model.json")
    for argv in (["synth", "--out", str(root / "data")],
                 ["train", "--dataset", data, "--out", str(root / "tcn")],
                 ["eval", "--dataset", data, "--model-path", model, "--out", str(root / "eval")],
                 ["attack", "--dataset", data, "--model-path", model,
                  "--out", str(root / "attack")]):
        assert cli.main(argv + ["--config", str(config)]) == 0
    return root


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_checkpoint_keys_the_benchmark_reads(artifacts):
    payload = read(artifacts / "tcn" / "model.json")
    model = models.load_model(artifacts / "tcn" / "model.json")
    assert payload["arch"] == "tcn" and isinstance(payload["config"], dict)
    params = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
              for name, entry in payload["params"].items()}
    assert params.keys() == model.params.keys()
    for name, arr in params.items():
        assert np.array_equal(arr, model.params[name])


def test_sweep_keys_the_benchmark_reads(artifacts):
    sweep = read(artifacts / "eval" / "sweep.json")
    report = evaluation.load_sweep(artifacts / "eval" / "sweep.json")
    targets = {o["label"]: np.array(o["target"]) for o in sweep["objectives"]}
    assert np.array_equal(targets["kicking"], report.objectives[0].target.flat())
    for cell, loaded in zip(sweep["cells"], report.cells, strict=True):
        assert (cell["objective"], cell["epsilon"], cell["kappa"], cell["flags"]) \
            == (loaded.objective, loaded.epsilon, loaded.kappa, loaded.flags)
        for adv, want in zip(cell["adversarial"], loaded.adversarial, strict=True):
            assert np.array_equal(np.array(adv), want)


def test_result_keys_the_benchmark_reads(artifacts):
    paths = sorted((artifacts / "attack" / "results").glob("result_*.json"))
    assert paths
    for path in paths:
        result = read(path)
        natural, adv = np.array(result["natural"]), np.array(result["adversarial"])
        target = np.array(result["target"])
        assert natural.ndim == adv.ndim == target.ndim == 2
        assert natural.shape == adv.shape == target.shape
        assert isinstance(result["config"]["epsilon"], float)
        assert isinstance(result["config"]["kappa"], float)
        assert isinstance(result["distance_sum"], float)
        assert isinstance(result["success"], bool)
        assert len(result["distance_trace"]) == 3  # the natural input, then each step

"""The package names that the benchmark's tracer and workloads patch by name.

bench/tracing.py imports only the standard library, so it is loaded here
from its file, unchanged.  A rename in the package that would break
`bench/run.py --trace 1` or the cli-pipeline attack timing fails here.
"""

import importlib.util
from pathlib import Path

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


def test_patched_names_exist():
    # bench/workloads.py times run_attack where cli and evaluation bound it,
    # and the tracer wraps these methods and models.train
    assert cli.run_attack is evaluation.run_attack is skelattack.attack.run_attack
    for owner, attr in ((models.SequenceRegressor, "predict_flat"),
                        (models.TcnRegressor, "build_graph"),
                        (models.GruRegressor, "build_graph"), (models, "train")):
        assert callable(vars(owner).get(attr)), (owner, attr)

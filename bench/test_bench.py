"""The benchmark's own tests: planted faults, the reference, the tracer, a smoke run.

    python3 -m pytest bench -q

Each planted-fault test first shows that the check accepts the genuine
output, then that it rejects the output with one fault planted in it.
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import tracing

from skelattack import attack, autodiff, models

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FRAMES, JOINTS = 6, 3


def tiny_model(arch):
    if arch == "tcn":
        return models.create_model("tcn", 3 * JOINTS, seed=4, hidden_layers=2, channels=8)
    return models.create_model("gru", 3 * JOINTS, seed=4, stack=[(1, 8), (1, 6)])


def natural_and_target(seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = reference.domain_bounds(3 * JOINTS)
    natural = lo + (np.minimum(hi, 1.0) - lo) * rng.uniform(0.2, 0.8, size=(FRAMES, 3 * JOINTS))
    target = rng.uniform(0.2, 0.8, size=(FRAMES, 3 * JOINTS))
    return natural, target


@pytest.fixture(scope="module", params=["tcn", "gru"])
def attacked(request):
    arch = request.param
    model = tiny_model(arch)
    natural, target = natural_and_target()
    kappa = 0.9 * reference.distance_sum(model.predict_flat(natural), target)
    cfg = attack.AttackConfig(target=target, kappa=kappa, epsilon=0.05, steps=30)
    result = attack.run_attack(model, natural, cfg)
    ref_out = reference.forward(arch, dataclasses.asdict(model.config), model.params,
                                result.adversarial.flat())
    return types.SimpleNamespace(arch=arch, model=model, natural=natural, target=target,
                                 kappa=kappa, cfg=cfg, result=result, ref_out=ref_out)


def attack_args(a, adversarial=None, success=None):
    r = a.result
    return (a.natural, r.adversarial.flat() if adversarial is None else adversarial,
            a.cfg.epsilon, r.distance_sum, r.distance_trace,
            r.success if success is None else success, a.kappa, a.ref_out, a.target, "t")


def test_reference_forward_matches_package(attacked):
    a = attacked
    checks.check_forward(a.model.predict_flat(a.natural),
                         reference.forward(a.arch, dataclasses.asdict(a.model.config),
                                           a.model.params, a.natural), "forward")


def test_genuine_attack_passes(attacked):
    assert attacked.result.best_step > 0, "the fixture attack should move off step 0"
    checks.check_attack(*attack_args(attacked))


def test_perturbation_beyond_epsilon_rejected(attacked):
    adv = attacked.result.adversarial.flat().copy()
    adv[2, 2] = attacked.natural[2, 2] + 1.01 * attacked.cfg.epsilon
    with pytest.raises(checks.CheckFailed, match="epsilon"):
        checks.check_attack(*attack_args(attacked, adversarial=adv))


def test_changed_non_depth_coordinate_rejected(attacked):
    adv = attacked.result.adversarial.flat().copy()
    adv[1, 0] = np.nextafter(adv[1, 0], 1.0)
    with pytest.raises(checks.CheckFailed, match="non-depth"):
        checks.check_attack(*attack_args(attacked, adversarial=adv))


def test_flipped_success_flag_rejected(attacked):
    with pytest.raises(checks.CheckFailed, match="success"):
        checks.check_attack(*attack_args(attacked, success=not attacked.result.success))


def test_forward_off_by_1e_6_rejected(attacked):
    out = attacked.model.predict_flat(attacked.result.adversarial.flat())
    checks.check_forward(out, attacked.ref_out, "genuine")
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_forward(out + 1e-6, attacked.ref_out, "planted")


def test_gradient_probe(attacked):
    a = attacked
    x = a.result.adversarial.flat()
    xt = autodiff.Tensor(x, requires_grad=True)
    loss, _ = attack.adv_loss(a.model, xt, a.target, a.cfg)
    autodiff.backward(loss)
    config = dataclasses.asdict(a.model.config)

    def ref_loss(z):
        return reference.attack_loss(reference.forward(a.arch, config, a.model.params, z),
                                     z, a.target, a.kappa, a.cfg.lam)

    assert abs(ref_loss(x) - float(loss.value)) < 1e-9 * max(1.0, abs(ref_loss(x)))
    coords = [(0, 2), (3, 4), (5, 8), (2, 0)]
    checks.check_gradient(xt.grad, ref_loss, x, coords, "genuine")
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_gradient(xt.grad * 1.001, ref_loss, x, coords, "planted")


def test_rerun_bytes_that_differ_rejected(tmp_path):
    first, again = tmp_path / "a", tmp_path / "b"
    for d in (first, again):
        d.mkdir()
        (d / "report.csv").write_bytes(b"model,rate\ntcn,0.5\n")
    names = ["report.csv"]
    checks.check_same_bytes(checks.file_digests(first, names),
                            checks.file_digests(again, names), "genuine")
    (again / "report.csv").write_bytes(b"model,rate\ntcn,0.6\n")
    with pytest.raises(checks.CheckFailed, match="report.csv"):
        checks.check_same_bytes(checks.file_digests(first, names),
                                checks.file_digests(again, names), "planted")


def test_training_check_rejects_a_rising_loss():
    checks.check_training([1.0, 0.5, 0.25], "genuine")
    with pytest.raises(checks.CheckFailed):
        checks.check_training([1.0, 0.5, 1.5], "planted")
    with pytest.raises(checks.CheckFailed):
        checks.check_training([1.0, float("nan"), 0.5], "planted")


def package_namespace():
    names = ("autodiff", "optim", "data", "models", "attack", "evaluation", "cli")
    mods = {n: importlib.import_module(f"skelattack.{n}") for n in names}
    return types.SimpleNamespace(all_modules=[sys.modules["skelattack"], *mods.values()],
                                 **mods)


def test_tracer_counts_spans_and_restores_the_package():
    sk = package_namespace()
    originals = {(m.__name__, k): v for m in sk.all_modules for k, v in vars(m).items()}
    model = tiny_model("gru")
    natural, target = natural_and_target()
    cfg = attack.AttackConfig(target=target, kappa=1.0, steps=3, update_rule="adam")
    tracer = tracing.Tracer()
    tracer.install(sk)
    try:
        sk.attack.run_attack(model, natural, cfg)
        values = tracer.round_metrics()
    finally:
        tracer.uninstall()
    assert {(m.__name__, k): v for m in sk.all_modules for k, v in vars(m).items()} == originals
    assert values["attack.run_attack.calls"] == 1
    assert values["optim.adam_update.calls"] == 3       # bound in attack at import
    assert values["autodiff.slice.calls"] > 0 and values["autodiff.slice.bwd_s"] > 0
    assert values["autodiff.matmul.flop"] > 0
    names = [name for name, *_ in tracer.spans]
    assert names.count("models.build_graph.gru") == 4 and names.count("autodiff.backward") == 3
    run_span = names.index("attack.run_attack")
    assert all(parent >= run_span for _, _, _, parent in tracer.spans[run_span + 1:])


def test_figures_are_slow_ends_and_pipeline_sums_the_stages():
    import workloads

    samples = {"stage.a_s": [1.0, 2.0, 3.0, 4.0, 5.0], "stage.b_s": [10.0, 10.0],
               "attack.tcn.steps_per_s": [100.0, 200.0, 300.0, 400.0, 500.0]}
    values = workloads.Workload(1, True, Path("unused")).summarise(samples)
    assert values == pytest.approx({"pipeline_s": 14.6, "attack.tcn.steps_per_s": 140.0})


def test_smoke_runs_every_workload():
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["workload"] for line in lines] == ["desk-sweep", "full-scale", "cli-pipeline"]
    assert all(line["correct"] and line["failed"] == 0 for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

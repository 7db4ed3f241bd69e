"""Acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line (run with `pytest -v -s` to see them
all).  The desk-scale benchmark is built once per module: a seeded
synthetic 8-category dataset, one convolutional and one recurrent model
overfit on it, and full attack sweeps over the epsilon grid.
"""

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from skelattack import autodiff as ad
from skelattack import attack, cli, data, evaluation, models

from tests.helpers import fd_gradients, max_rel_err, sampled_sphere_min, sweep_cell
from tests.test_autodiff import all_op_gradcheck_cases, op_gradcheck

ARCHIVE_DIR = Path(__file__).resolve().parent.parent / "build" / "acceptance"

BENCH_SEED = 7
BENCH_HELD = {"s03s04", "s05s02"}
BENCH_FRAMES = 16
BENCH_JOINTS = 5
BENCH_PER_CATEGORY = 2
BENCH_EPOCHS = 2000
BENCH_MODELS = {
    "tcn": dict(hidden_layers=3, channels=64),
    "gru": dict(stack=[(1, 64)]),
}
EPSILON_FULL = 0.45


def check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


@dataclass
class Benchmark:
    records: list
    inputs: list                      # held-out actor sequences under attack
    models: dict = field(default_factory=dict)
    train_ratios: dict = field(default_factory=dict)
    objectives: dict = field(default_factory=dict)   # arch -> derived-kappa objectives
    reports: dict = field(default_factory=dict)      # arch -> full-grid sweep
    efficacy_seconds: dict = field(default_factory=dict)
    lam_effect: dict = field(default_factory=dict)   # arch -> list of (with, without)


@pytest.fixture(scope="module")
def bench():
    records = data.synth_generate(seed=BENCH_SEED, n_per_category=BENCH_PER_CATEGORY,
                                  frames=BENCH_FRAMES, joints=BENCH_JOINTS)
    split = data.split_by_sets(records, BENCH_HELD)
    inputs = [r.actor for r in data.held_out_records(records, BENCH_HELD)]
    state = Benchmark(records=records, inputs=inputs)
    in_dim = inputs[0].flat().shape[1]

    base_objectives = evaluation.make_objectives(
        records, list(data.CATEGORIES), evaluation.DEFAULT_TOLERANCES,
        seed=11, prefer_ids=BENCH_HELD)
    grid = list(attack.EPSILON_GRID)

    for arch, overrides in BENCH_MODELS.items():
        t0 = time.perf_counter()
        model = models.create_model(arch, in_dim, preset="tiny", seed=1, **overrides)
        model, history = models.train(
            model, split, models.TrainConfig(epochs=BENCH_EPOCHS, lr=0.001))
        train_seconds = time.perf_counter() - t0
        state.models[arch] = model
        state.train_ratios[arch] = history[-1] / history[0]

        # survey-free tolerances: 25th percentile of the natural distance sums
        t0 = time.perf_counter()
        objectives = [replace(o, kappa=evaluation.derive_kappa(model, inputs, o, 25.0))
                      for o in base_objectives]
        state.objectives[arch] = objectives
        derive_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = evaluation.whitebox_sweep(model, arch, inputs, objectives,
                                           epsilon_grid=[EPSILON_FULL],
                                           base_cfg=attack.AttackConfig())
        attack_seconds = time.perf_counter() - t0
        state.efficacy_seconds[arch] = train_seconds + derive_seconds + attack_seconds

        rest = evaluation.whitebox_sweep(model, arch, inputs, objectives,
                                         epsilon_grid=grid[:-1],
                                         base_cfg=attack.AttackConfig())
        report.cells.extend(rest.cells)
        report.epsilon_grid = grid
        state.reports[arch] = report

        # the same attacks with the temporal term disabled, for the
        # smoothness comparison
        pairs = []
        for objective in objectives:
            cell = sweep_cell(report, objective.label, EPSILON_FULL)
            for i, seq in enumerate(inputs):
                target = evaluation.fit_target_length(objective.target, seq.num_frames)
                cfg = attack.AttackConfig(target=target, kappa=objective.kappa,
                                          epsilon=EPSILON_FULL, lam=0.0)
                bare = attack.run_attack(model, seq, cfg)
                pairs.append((_max_jump(cell.adversarial[i]),
                              _max_jump(bare.adversarial.flat())))
        state.lam_effect[arch] = pairs
    return state


def _max_jump(flat: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(flat, axis=0))))


# 1. gradient correctness -----------------------------------------------------

def test_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for kind, arrays, attrs in all_op_gradcheck_cases():
        worst = max(worst, op_gradcheck(kind, arrays, attrs))

    # combined objective end-to-end on tiny models of both families
    rng = np.random.default_rng(24)
    frames, dim = 4, 6
    for arch in ("tcn", "gru"):
        x0 = rng.uniform(0.2, 0.8, size=(frames, dim))
        target = rng.uniform(0.2, 0.8, size=(frames, dim))
        if arch == "tcn":
            model = models.create_model("tcn", dim, seed=2, hidden_layers=2, channels=8)
        else:
            model = models.create_model("gru", dim, seed=2, stack=[(1, 8)])
        cfg = attack.AttackConfig(target=target, kappa=2.0, lam=0.1)

        def loss_value(arrays):
            loss, _ = attack.adv_loss(model, ad.Tensor(arrays[0]), target, cfg)
            return float(loss.value)

        xt = ad.Tensor(x0, requires_grad=True)
        loss, _ = attack.adv_loss(model, xt, target, cfg)
        ad.backward(loss)
        numeric = fd_gradients(loss_value, [x0.copy()], step=1e-5)[0]
        worst = max(worst, max_rel_err(xt.grad, numeric))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    assert check("gradient correctness", ok,
                 f"max rel err {worst:.2e}, {elapsed:.1f}s")


# 2. spatial-loss oracle -------------------------------------------------------

def test_spatial_loss_sphere_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        center = rng.normal(size=3)
        eta = rng.uniform(0.2, 0.8)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = center + rng.uniform(0.05, 1.5) * direction
        closed = float(attack.spatial_loss(ad.Tensor(point[None]),
                                           center[None], eta).value)
        sampled = sampled_sphere_min(point, center, eta, 300_000, rng)
        assert closed <= sampled + 1e-12
        worst = max(worst, abs(closed - sampled))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-2 and elapsed < 60.0
    assert check("spatial-loss sphere oracle", ok,
                 f"max gap {worst:.2e} over 100 frames, {elapsed:.1f}s")


# 3. constraint invariants -----------------------------------------------------

def test_constraint_invariants_full_run(bench):
    violations = 0
    checked = 0
    for arch, model in bench.models.items():
        seq = bench.inputs[0]
        flat = seq.flat()
        objective = bench.objectives[arch][3]
        target = evaluation.fit_target_length(objective.target, seq.num_frames)
        eps = 0.3
        cfg = attack.AttackConfig(target=target, kappa=objective.kappa,
                                  epsilon=eps, steps=400)
        stats = {"count": 0}

        def watch(step, x_adv):
            stats["count"] += 1
            nonlocal violations
            if np.max(np.abs(x_adv - flat)) > eps:
                violations += 1
            if not (np.array_equal(x_adv[:, 0::3], flat[:, 0::3])
                    and np.array_equal(x_adv[:, 1::3], flat[:, 1::3])):
                violations += 1

        result = attack.run_attack(model, seq, cfg, on_step=watch)
        checked += stats["count"]
        adv = result.adversarial.flat()
        if np.max(np.abs(adv - flat)) > eps:
            violations += 1
        if not np.array_equal(adv[:, 0::3], flat[:, 0::3]):
            violations += 1
    ok = violations == 0 and checked == 800
    assert check("constraint invariants over full runs", ok,
                 f"{checked} iterates, {violations} violations")


# 4. causality -----------------------------------------------------------------

def test_causality_both_architectures(bench):
    rng = np.random.default_rng(47)
    violations = 0
    for arch, model in bench.models.items():
        flat = bench.inputs[0].flat()
        base = model.predict_flat(flat)
        for _ in range(50):
            t = int(rng.integers(0, flat.shape[0] - 1))
            bumped = flat.copy()
            bumped[t + 1:] += rng.normal(scale=0.25, size=bumped[t + 1:].shape)
            out = model.predict_flat(bumped)
            if not np.array_equal(out[:t + 1], base[:t + 1]):
                violations += 1
    ok = violations == 0
    assert check("causality under future perturbation", ok,
                 f"2 x 50 trials, {violations} violations")


# 5. desk-scale white-box efficacy ----------------------------------------------

def test_whitebox_efficacy(bench):
    ok = True
    details = []
    for arch in BENCH_MODELS:
        ratio = bench.train_ratios[arch]
        report = bench.reports[arch]
        flags = [f for c in report.cells if c.epsilon == EPSILON_FULL for f in c.flags]
        rate = sum(flags) / len(flags)
        seconds = bench.efficacy_seconds[arch]
        details.append(f"{arch}: mse ratio {ratio:.1e}, "
                       f"success {sum(flags)}/{len(flags)}, {seconds:.0f}s")
        ok &= ratio < 1e-3 and rate >= 0.9
    total = sum(bench.efficacy_seconds.values())
    ok &= total < 900.0
    assert check("desk-scale white-box efficacy", ok,
                 "; ".join(details) + f"; total {total:.0f}s")


# 6. epsilon-monotonicity trend --------------------------------------------------

def test_epsilon_monotonicity(bench):
    ok = True
    details = []
    for arch in BENCH_MODELS:
        report = bench.reports[arch]
        means = [report.mean_rate(e) for e in report.epsilon_grid]
        violations = sum(1 for lo, hi in zip(means, means[1:]) if hi < lo - 1e-12)
        details.append(f"{arch}: rates {[round(v, 3) for v in means]}, "
                       f"{violations} adjacent violations")
        ok &= violations <= 1
    assert check("success-rate monotonicity in epsilon", ok, "; ".join(details))


# 7. temporal-constraint effect --------------------------------------------------

def test_temporal_constraint_smooths_perturbation(bench):
    ok = True
    details = []
    for arch in BENCH_MODELS:
        pairs = bench.lam_effect[arch]
        smoother = sum(1 for with_term, without in pairs if with_term <= without)
        fraction = smoother / len(pairs)
        details.append(f"{arch}: {smoother}/{len(pairs)}")
        ok &= fraction >= 0.8
    assert check("temporal term reduces inter-frame jumps", ok, "; ".join(details))


# 8. transfer harness consistency ------------------------------------------------

def test_transfer_consistency_and_matrix(bench):
    ARCHIVE_DIR.mkdir(parents=True, exist_ok=True)
    consistent = True
    rows = []
    cross_rates = {}
    for src in BENCH_MODELS:
        report = bench.reports[src]
        identity = evaluation.blackbox_transfer(report, bench.models[src], src)
        for wb, tr in zip(report.cells, identity.cells):
            if wb.flags != tr.flags:
                consistent = False
        for dst in BENCH_MODELS:
            if dst == src:
                continue
            entry = evaluation.blackbox_transfer(report, bench.models[dst], dst)
            rows.extend(evaluation.cell_rows({"source": report.model_id, "receiver": dst},
                                             entry.cells))
            at_full = [c.rate for c in entry.cells if c.epsilon == EPSILON_FULL]
            cross_rates[f"{src}->{dst}"] = sum(at_full) / len(at_full)
    evaluation.write_csv(rows, ARCHIVE_DIR / "transfer_matrix.csv")
    recorded = ", ".join(f"{k} {v:.3f}@eps={EPSILON_FULL}"
                         for k, v in sorted(cross_rates.items()))
    ok = consistent and (ARCHIVE_DIR / "transfer_matrix.csv").exists()
    assert check("transfer harness consistency", ok,
                 f"identity flags bit-exact; recorded {recorded}; "
                 f"archived {ARCHIVE_DIR / 'transfer_matrix.csv'}")


# 9. determinism ------------------------------------------------------------------

def test_manifest_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        '{"data": {"per_category": 1, "frames": 6, "joints": 3,'
        ' "held_out": ["s03s04"]},'
        ' "train": {"epochs": 8},'
        ' "attack": {"steps": 5},'
        ' "eval": {"epsilon_grid": [0.3], "objectives": ["kicking"]}}',
        encoding="utf-8")

    def run_all(tag):
        out = tmp_path / tag
        assert cli.main(["synth", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(out / "data")]) == 0
        assert cli.main(["train", "--config", str(cfg_path),
                         "--dataset", str(out / "data" / "dataset.json"),
                         "--model", "tcn", "--out", str(out / "model")]) == 0
        assert cli.main(["eval", "--config", str(cfg_path),
                         "--dataset", str(out / "data" / "dataset.json"),
                         "--model-path", str(out / "model" / "model.json"),
                         "--out", str(out / "eval")]) == 0
        return {
            "dataset": (out / "data" / "dataset.json").read_bytes(),
            "checkpoint": (out / "model" / "model.json").read_bytes(),
            "history": (out / "model" / "loss_history.csv").read_bytes(),
            "report": (out / "eval" / "report.csv").read_bytes(),
            "sweep": (out / "eval" / "sweep.json").read_bytes(),
        }

    first = run_all("run1")
    second = run_all("run2")
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    assert check("manifest determinism", ok,
                 ", ".join(f"{k}:{'=' if v else '!='}" for k, v in same.items()))

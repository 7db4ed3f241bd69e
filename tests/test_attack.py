"""Attack losses, the projected update, and the full attack loop."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from skelattack import autodiff as ad
from skelattack import attack, data, models

from tests.helpers import (assert_attack_matches_every_step, fd_gradients, first_repeat,
                           max_rel_err, sampled_sphere_min)


def make_seq(arr):
    return data.SkeletonSequence.from_flat(np.asarray(arr, dtype=np.float64))


def tiny_model(in_dim, arch="tcn", seed=0):
    if arch == "tcn":
        return models.create_model("tcn", in_dim, seed=seed, hidden_layers=2, channels=8)
    return models.create_model("gru", in_dim, seed=seed, stack=[(1, 8)])


# spatial loss ----------------------------------------------------------------

def test_spatial_loss_zero_on_sphere():
    # every output frame at distance eta from its target frame
    eta = 0.7
    target = np.zeros((4, 6))
    output = np.zeros((4, 6))
    output[:, 0] = eta
    loss = attack.spatial_loss(ad.Tensor(output), target, eta)
    assert float(loss.value) == pytest.approx(0.0, abs=1e-12)


def test_spatial_loss_single_frame_point_to_sphere():
    target = np.zeros((1, 3))
    output = np.array([[5.0, 0.0, 0.0]])
    loss = attack.spatial_loss(ad.Tensor(output), target, 2.0)
    assert float(loss.value) == pytest.approx(3.0, abs=1e-12)


def test_spatial_loss_matches_sphere_sampling():
    # closed form vs the min over uniform sphere samples, single-joint frames
    rng = np.random.default_rng(17)
    for _ in range(10):
        center = rng.normal(size=3)
        eta = rng.uniform(0.2, 0.8)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = center + rng.uniform(0.05, 1.5) * direction
        closed = float(attack.spatial_loss(
            ad.Tensor(point[None]), center[None], eta).value)
        sampled = sampled_sphere_min(point, center, eta, 300_000, rng)
        assert closed <= sampled + 1e-12
        assert abs(closed - sampled) < 1e-2


def test_spatial_loss_shape_mismatch():
    with pytest.raises(attack.AttackError, match="shapes differ"):
        attack.spatial_loss(ad.Tensor(np.zeros((3, 4))), np.zeros((2, 4)), 1.0)


def test_spatial_loss_rejects_bad_eta():
    with pytest.raises(attack.AttackError, match="eta"):
        attack.spatial_loss(ad.Tensor(np.zeros((2, 3))), np.zeros((2, 3)), -1.0)
    with pytest.raises(attack.AttackError, match="eta"):
        attack.spatial_loss(ad.Tensor(np.zeros((2, 3))), np.zeros((2, 3)), math.inf)


# temporal loss ---------------------------------------------------------------

def test_temporal_loss_constant_sequence_is_zero():
    x = ad.Tensor(np.tile([0.3, 0.4, 0.5], (6, 2)))
    assert float(attack.temporal_loss(x).value) == 0.0


def test_temporal_loss_two_frames_unit_apart():
    x = np.zeros((2, 3))
    x[1, 0] = 1.0
    assert float(attack.temporal_loss(ad.Tensor(x)).value) == pytest.approx(2.0)


def test_temporal_loss_positive_homogeneity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 6))
    x -= x.mean(axis=0)
    one = float(attack.temporal_loss(ad.Tensor(x)).value)
    two = float(attack.temporal_loss(ad.Tensor(2.0 * x)).value)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_temporal_loss_needs_two_frames():
    with pytest.raises(attack.AttackError, match="2 frames"):
        attack.temporal_loss(ad.Tensor(np.zeros((1, 3))))


def test_temporal_loss_gradient_same_as_zero_filled_slice_adjoint(monkeypatch):
    # the slice adjoint adds into its rows only; adding a zero-filled array
    # of the whole source instead must give the same bits
    def zero_filled_slice(a, start, stop, axis=0):
        def backward_fn(g):
            full = np.zeros_like(a.value)
            full[start:stop] = g
            a.accumulate(full)

        return ad._result(a.value[start:stop].copy(), (a,), backward_fn)

    x = np.random.default_rng(11).uniform(0.1, 0.9, size=(9, 6))
    grads = []
    for slicer in (ad.slice_axis, zero_filled_slice):
        monkeypatch.setattr(ad, "slice_axis", slicer)
        xt = ad.Tensor(x, requires_grad=True)
        ad.backward(attack.temporal_loss(xt))
        grads.append(xt.grad)
    assert np.array_equal(grads[0], grads[1])


# combined objective ----------------------------------------------------------

def test_adv_loss_lambda_zero_equals_spatial():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 0.8, size=(5, 6))
    target = rng.uniform(0.2, 0.8, size=(5, 6))
    model = tiny_model(6)
    cfg = attack.AttackConfig(target=target, kappa=4.0, lam=0.0, steps=1)
    loss, output = attack.adv_loss(model, ad.Tensor(x), target, cfg)
    direct = attack.spatial_loss(ad.Tensor(model.predict_flat(x)), target, 4.0 / 5)
    assert float(loss.value) == pytest.approx(float(direct.value), rel=1e-12)


def test_adv_loss_zero_when_constant_input_and_output_on_sphere():
    # zero-head model outputs all zeros; targets sit at distance eta
    model = tiny_model(6)
    model.params["head_w"] = np.zeros_like(model.params["head_w"])
    model.params["head_b"] = np.zeros_like(model.params["head_b"])
    frames = 4
    eta = 1.25
    target = np.zeros((frames, 6))
    target[:, 3] = eta
    x = np.tile(np.array([0.5, 0.5, 1.0, 0.5, 0.5, 1.0]), (frames, 1))
    cfg = attack.AttackConfig(target=target, kappa=eta * frames, lam=0.1)
    loss, _ = attack.adv_loss(model, ad.Tensor(x), target, cfg)
    assert float(loss.value) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_adv_loss_gradient_matches_finite_differences(arch):
    rng = np.random.default_rng(6)
    frames, dim = 4, 6
    x0 = rng.uniform(0.2, 0.8, size=(frames, dim))
    target = rng.uniform(0.2, 0.8, size=(frames, dim))
    model = tiny_model(dim, arch, seed=2)
    cfg = attack.AttackConfig(target=target, kappa=2.0, lam=0.1)

    def loss_value(arrays):
        loss, _ = attack.adv_loss(model, ad.Tensor(arrays[0]), target, cfg)
        return float(loss.value)

    xt = ad.Tensor(x0, requires_grad=True)
    loss, _ = attack.adv_loss(model, xt, target, cfg)
    ad.backward(loss)
    numeric = fd_gradients(loss_value, [x0.copy()])[0]
    assert max_rel_err(xt.grad, numeric) < 1e-4


# projected update ------------------------------------------------------------

def test_pgd_step_zero_gradient_is_identity():
    x = np.full((3, 6), 0.5)
    cfg = attack.AttackConfig(target=np.zeros((3, 6)), kappa=1.0, epsilon=0.1)
    stepped, _ = attack.pgd_step(x, x.copy(), np.zeros_like(x), cfg)
    assert np.array_equal(stepped, x)


def test_pgd_step_sign_step_size():
    # interior point: one step moves masked coords by exactly alpha
    x = np.full((2, 6), 0.5)
    grad = np.ones_like(x)
    cfg = attack.AttackConfig(target=np.zeros((2, 6)), kappa=1.0,
                              epsilon=0.45, alpha=0.03, mask="all")
    stepped, _ = attack.pgd_step(x, x.copy(), grad, cfg)
    assert np.allclose(stepped, 0.47)
    cfg_depth = dataclasses.replace(cfg, mask="depth")
    stepped, _ = attack.pgd_step(x, x.copy(), grad, cfg_depth)
    assert np.allclose(stepped[:, 2::3], 0.47)
    assert np.array_equal(stepped[:, 0::3], x[:, 0::3])
    assert np.array_equal(stepped[:, 1::3], x[:, 1::3])


def test_pgd_step_clips_to_epsilon_box():
    # candidate drifts to 0.5 on a depth coordinate; epsilon pulls it to 0.1
    x = np.zeros((1, 3))
    x_adv = np.array([[0.0, 0.0, 0.47]])
    grad = np.array([[0.0, 0.0, -1.0]])
    cfg = attack.AttackConfig(target=np.zeros((1, 3)), kappa=1.0,
                              epsilon=0.1, alpha=0.03)
    stepped, _ = attack.pgd_step(x, x_adv, grad, cfg)
    assert stepped[0, 2] == pytest.approx(0.1)


def test_pgd_step_respects_domain_bounds():
    x = np.full((1, 3), 0.98)
    x[0, 2] = 7.8  # depth near its ceiling
    grad = -np.ones_like(x)
    cfg = attack.AttackConfig(target=np.zeros((1, 3)), kappa=1.0,
                              epsilon=0.45, alpha=0.1, mask="all")
    stepped, _ = attack.pgd_step(x, x.copy(), grad, cfg)
    assert stepped[0, 0] <= 1.0 and stepped[0, 1] <= 1.0
    assert stepped[0, 2] <= data.DEPTH_RANGE[1]


def test_pgd_step_refuses_a_start_further_than_epsilon_outside_the_domain():
    # depth 8.0 lies 0.1875 past the domain's 7.8125, so the box of half-width
    # 0.075 around it misses the domain; run apart, so that a hang fails the test
    script = textwrap.dedent("""
        import numpy as np
        from skelattack import attack
        x = np.array([[0.5, 0.5, 8.0]])
        cfg = attack.AttackConfig(epsilon=0.075, mask="depth")
        try:
            attack.pgd_step(x, x, np.ones_like(x), cfg)
        except attack.AttackError as exc:
            print(exc)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(attack.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "more than epsilon outside the domain" in done.stdout


def test_config_validation():
    kwargs = dict(target=np.zeros((2, 3)), kappa=1.0)
    with pytest.raises(attack.AttackError, match="temporal weight"):
        attack.AttackConfig(lam=1.5, **kwargs)
    with pytest.raises(attack.AttackError, match="epsilon"):
        attack.AttackConfig(epsilon=0.0, **kwargs)
    with pytest.raises(attack.AttackError, match="steps"):
        attack.AttackConfig(steps=0, **kwargs)
    with pytest.raises(attack.AttackError, match="kappa"):
        attack.AttackConfig(target=np.zeros((2, 3)), kappa=-1.0)
    with pytest.raises(attack.AttackError, match="mask"):
        attack.AttackConfig(mask="joints", **kwargs)
    with pytest.raises(attack.AttackError, match="mask"):
        attack.AttackConfig(mask=np.ones(3, dtype=bool), **kwargs)
    with pytest.raises(attack.AttackError, match="update_rule"):
        attack.AttackConfig(update_rule="sgd", **kwargs)
    with pytest.raises(attack.AttackError, match="adam_lr"):
        attack.AttackConfig(adam_lr=0.0, **kwargs)
    for name in ("epsilon", "alpha", "lam"):
        with pytest.raises(attack.AttackError):
            attack.AttackConfig(**{name: float("nan")}, **kwargs)


# full attack loop ------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_sample():
    records = data.synth_generate(seed=33, n_per_category=1, frames=8, joints=3)
    x = records[0].actor            # approaching
    target = records[2].reactor     # kicking reaction
    return x, target


def test_run_attack_infinite_kappa_always_succeeds(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=1)
    cfg = attack.AttackConfig(target=target, kappa=math.inf, steps=3)
    result = attack.run_attack(model, x, cfg)
    assert result.success


def test_run_attack_natural_target_succeeds_at_step_zero(fixture_sample):
    x, _ = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=1)
    natural = model.predict(x)
    cfg = attack.AttackConfig(target=natural, kappa=0.5, steps=5)
    result = attack.run_attack(model, x, cfg)
    assert result.success
    assert result.best_step == 0
    assert result.distance_sum == pytest.approx(0.0, abs=1e-12)


def test_run_attack_invariants_every_iterate(fixture_sample):
    x, target = fixture_sample
    flat = x.flat()
    model = tiny_model(flat.shape[1], seed=2)
    eps = 0.2
    cfg = attack.AttackConfig(target=target, kappa=1.0, epsilon=eps, steps=60)
    seen = []

    def check(step, x_adv):
        seen.append(step)
        assert np.max(np.abs(x_adv - flat)) <= eps
        assert np.array_equal(x_adv[:, 0::3], flat[:, 0::3])
        assert np.array_equal(x_adv[:, 1::3], flat[:, 1::3])

    result = attack.run_attack(model, x, cfg, on_step=check)
    assert seen == list(range(60))
    assert result.max_perturbation <= eps
    adv = result.adversarial.flat()
    assert np.array_equal(adv[:, 0::3], flat[:, 0::3])
    assert np.array_equal(adv[:, 1::3], flat[:, 1::3])


def test_run_attack_reduces_distance(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=4)
    cfg = attack.AttackConfig(target=target, kappa=0.1, epsilon=0.45, steps=150)
    result = attack.run_attack(model, x, cfg)
    assert result.distance_sum < result.distance_trace[0]
    assert len(result.loss_trace) == 151
    assert len(result.distance_trace) == 151


def test_run_attack_deterministic(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=4)
    cfg = attack.AttackConfig(target=target, kappa=1.0, epsilon=0.3, steps=25)
    r1 = attack.run_attack(model, x, cfg)
    r2 = attack.run_attack(model, x, cfg)
    assert np.array_equal(r1.adversarial.joints, r2.adversarial.joints)
    assert r1.loss_trace == r2.loss_trace
    assert r1.distance_trace == r2.distance_trace


def test_run_attack_adam_rule(fixture_sample):
    x, target = fixture_sample
    flat = x.flat()
    model = tiny_model(flat.shape[1], seed=4)
    cfg = attack.AttackConfig(target=target, kappa=1.0, epsilon=0.3, steps=40,
                              update_rule="adam", adam_lr=0.01)
    result = attack.run_attack(model, x, cfg)
    assert result.max_perturbation <= 0.3
    assert result.distance_sum <= result.distance_trace[0]
    adv = result.adversarial.flat()
    assert np.array_equal(adv[:, 0::3], flat[:, 0::3])


# (arch, model seed, config overrides, (m, period) of the first repeat or None);
# the repeats were read off every iterate and are asserted again below
EVERY_STEP_CASES = {
    "cycle": ("tcn", 0, dict(epsilon=0.3, lam=0.1), (18, 2)),
    "fixed-point": ("tcn", 0, dict(epsilon=0.075, lam=0.0), (4, 1)),
    "fixed-point-at-last-step": ("tcn", 0, dict(epsilon=0.075, lam=0.0, steps=4), (4, 1)),
    "lambda-zero": ("gru", 0, dict(epsilon=0.45, lam=0.0, mask="all"), (21, 2)),
    "mask-all": ("tcn", 1, dict(epsilon=0.45, lam=0.1, mask="all"), (46, 2)),
    "no-repeat": ("gru", 2, dict(epsilon=0.45, lam=0.0), None),
    "adam": ("tcn", 4, dict(epsilon=0.3, update_rule="adam", adam_lr=0.01), None),
    "one-step": ("gru", 1, dict(epsilon=0.3, steps=1), None),
}


@pytest.mark.parametrize("case", list(EVERY_STEP_CASES))
def test_run_attack_equals_every_step_oracle(case, fixture_sample):
    x, target = fixture_sample
    arch, seed, overrides, repeat = EVERY_STEP_CASES[case]
    model = tiny_model(x.flat().shape[1], arch=arch, seed=seed)
    cfg = attack.AttackConfig(target=target, kappa=1.0, **{"steps": 60, **overrides})
    assert first_repeat(model, x, cfg) == repeat
    assert_attack_matches_every_step(model, x, cfg)


@pytest.mark.parametrize("rule", ["pgd", "adam"])
def test_run_attack_evaluates_fewer_steps_once_a_sign_rule_iterate_repeats(
        rule, fixture_sample, monkeypatch):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=0)
    cfg = attack.AttackConfig(target=target, kappa=1.0, epsilon=0.3, steps=60,
                              update_rule=rule, adam_lr=0.01)
    calls = []

    def counted(*args, _adv_loss=attack.adv_loss):
        calls.append(1)
        return _adv_loss(*args)

    monkeypatch.setattr(attack, "adv_loss", counted)
    result = attack.run_attack(model, x, cfg)
    assert len(result.loss_trace) == len(result.distance_trace) == 61
    if rule == "pgd":  # x_18 repeats x_16 (the "cycle" case above)
        assert len(calls) == 18
    else:
        assert len(calls) == 61


def test_run_attack_diverges_on_nan_model(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=4)
    model.params["head_b"] = model.params["head_b"] + np.nan
    cfg = attack.AttackConfig(target=target, kappa=1.0, steps=3)
    with pytest.raises(attack.AttackDivergedError) as exc:
        attack.run_attack(model, x, cfg)
    assert exc.value.step == 0


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_run_attack_divergence_is_raised_not_warned(arch, fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], arch=arch, seed=4)
    model.params = {name: p * 1e200 for name, p in model.params.items()}
    cfg = attack.AttackConfig(target=target, kappa=1.0, steps=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(attack.AttackDivergedError):
            attack.run_attack(model, x, cfg)


def test_run_attack_requires_target_and_kappa(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1])
    with pytest.raises(attack.AttackError, match="target"):
        attack.run_attack(model, x, attack.AttackConfig(kappa=1.0))
    with pytest.raises(attack.AttackError, match="kappa"):
        attack.run_attack(model, x, attack.AttackConfig(target=target))


def test_run_attack_target_shape_mismatch(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1])
    short = data.SkeletonSequence(target.joints[:4])
    cfg = attack.AttackConfig(target=short, kappa=1.0)
    with pytest.raises(attack.AttackError, match="target shape"):
        attack.run_attack(model, x, cfg)


def test_single_small_step_usually_decreases_loss():
    # sanity bound frozen from seeded trials: a tiny sign step should
    # descend on nearly every smooth instance
    rng = np.random.default_rng(99)
    decreased = 0
    trials = 40
    for trial in range(trials):
        frames, dim = 5, 6
        x = rng.uniform(0.3, 0.7, size=(frames, dim))
        target = rng.uniform(0.3, 0.7, size=(frames, dim))
        model = tiny_model(dim, seed=trial)
        cfg = attack.AttackConfig(target=target, kappa=1.5, epsilon=0.45,
                                  alpha=1e-3, lam=0.1, steps=1)
        xt = ad.Tensor(x, requires_grad=True)
        loss, _ = attack.adv_loss(model, xt, target, cfg)
        ad.backward(loss)
        stepped, _ = attack.pgd_step(x, x.copy(), xt.grad, cfg)
        new_loss, _ = attack.adv_loss(model, ad.Tensor(stepped), target, cfg)
        if float(new_loss.value) < float(loss.value):
            decreased += 1
    assert decreased >= int(0.9 * trials)


def test_run_attack_single_frame_needs_lambda_zero():
    records = data.synth_generate(seed=2, n_per_category=1, frames=2, joints=3)
    x = data.SkeletonSequence(records[0].actor.joints[:1])
    target = data.SkeletonSequence(records[0].reactor.joints[:1])
    model = tiny_model(x.flat().shape[1])
    cfg = attack.AttackConfig(target=target, kappa=5.0, steps=2, lam=0.1)
    with pytest.raises(attack.AttackError, match="2 frames"):
        attack.run_attack(model, x, cfg)
    result = attack.run_attack(model, x, dataclasses.replace(cfg, lam=0.0))
    assert len(result.loss_trace) == 3


def test_result_export_round_trip(fixture_sample):
    x, target = fixture_sample
    model = tiny_model(x.flat().shape[1], seed=4)
    cfg = attack.AttackConfig(target=target, kappa=2.0, epsilon=0.3, steps=5)
    result = attack.run_attack(model, x, cfg)
    payload = attack.result_to_dict(result)
    assert payload["config"]["epsilon"] == 0.3
    assert payload["config"]["lambda"] == cfg.lam
    assert payload["success"] == result.success
    assert len(payload["loss_trace"]) == 6
    restored = np.array(payload["adversarial"])
    assert np.array_equal(restored, result.adversarial.flat())

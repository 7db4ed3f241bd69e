"""Targeted attack on causal sequence regressors.

Starting from a natural input sequence, the attack iteratively perturbs
it so the model's whole output sequence approaches a chosen target
reaction, while keeping every coordinate within an L-infinity budget of
the original and, optionally, touching only the depth coordinate of
each joint.

The objective has two parts.  The spatial term measures, per frame, the
distance from the model output to the sphere of radius eta around the
target frame (closed form: |dist - eta|), summed over time; eta is the
per-frame share kappa / T of the success tolerance kappa.  The temporal
term sums distances between neighbouring perturbed frames, which
discourages jumpy, easily spotted perturbations; it is scaled by a
weight in [0, 1].

Each attack runs single-threaded; attacking many samples concurrently
against one (immutable) model is safe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import LOWER, UPPER, SkeletonSequence
from .optim import AdamState, adam_update

EPSILON_GRID = (0.075, 0.15, 0.225, 0.3, 0.375, 0.45)

DEFAULT_LAMBDA = 0.1
_CYCLE_WINDOW = 16  # the latest iterates a sign-rule update is checked against


class AttackError(ValueError):
    pass


class AttackDivergedError(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"adversarial loss became non-finite at step {step}")


@dataclass
class AttackConfig:
    """Knobs for one attack run; see EPSILON_GRID for the usual sweep."""

    target: SkeletonSequence | np.ndarray | None = None
    kappa: float | None = None
    epsilon: float = 0.45
    alpha: float = 0.03
    steps: int = 400
    lam: float = DEFAULT_LAMBDA
    mask: str = "depth"
    update_rule: str = "pgd"
    adam_lr: float = 1e-3

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.epsilon < math.inf:
            raise AttackError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.alpha > 0:
            raise AttackError(f"alpha must be positive, got {self.alpha}")
        if not self.steps >= 1:
            raise AttackError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.lam <= 1.0:
            raise AttackError(f"temporal weight lambda must be in [0, 1], got {self.lam}")
        if self.kappa is not None and not self.kappa >= 0:
            raise AttackError("kappa must be >= 0")
        if not (isinstance(self.mask, str) and self.mask in _MOVABLE):
            raise AttackError(f"mask must be {' or '.join(map(repr, _MOVABLE))}, "
                              f"got {self.mask!r}")
        if self.update_rule not in ("pgd", "adam"):
            raise AttackError(f"update_rule must be 'pgd' or 'adam', got {self.update_rule!r}")
        if not self.adam_lr > 0:
            raise AttackError(f"adam_lr must be positive, got {self.adam_lr}")


# The name of each scalar AttackConfig setting in config files and result files.
SETTINGS = {"epsilon": "epsilon", "alpha": "alpha", "steps": "steps", "lambda": "lam",
            "kappa": "kappa", "mask": "mask", "update_rule": "update_rule",
            "adam_lr": "adam_lr"}


@dataclass
class AttackResult:
    adversarial: SkeletonSequence
    loss_trace: list[float]
    distance_trace: list[float]
    distance_sum: float
    success: bool
    max_perturbation: float
    best_step: int
    config: AttackConfig


# ---------------------------------------------------------------------------
# losses


def distance_sum(output: np.ndarray, target: np.ndarray):
    """Sum over frames of the L2 distance; for (B, T, C), a list of each row's own sum."""
    if output.shape != target.shape:
        raise AttackError(
            f"output {output.shape} and target {target.shape} shapes differ")
    sums = np.sum(np.sqrt(np.sum((output - target) ** 2, axis=-1)), axis=-1)
    return float(sums) if sums.ndim == 0 else sums.tolist()


def spatial_loss(output: ad.Tensor, target: np.ndarray, eta: float) -> ad.Tensor:
    """Summed per-frame distance to the sphere of radius eta around the target.

    The infimum of ||o_t - p|| over points p at distance eta from the
    target frame is |  ||o_t - target_t|| - eta |, which is what gets
    summed; the kink where the output sits exactly on the sphere uses
    subgradient 0.
    """
    if output.value.shape != target.shape:
        raise AttackError(
            f"output {output.value.shape} and target {target.shape} shapes differ")
    if not (math.isfinite(eta) and eta >= 0):
        raise AttackError(f"eta must be finite and >= 0, got {eta}")
    diff = ad.subtract(output, ad.Tensor(target))
    dists = ad.l2_norm(diff, axis=-1)
    dev = ad.subtract(dists, ad.Tensor(np.full(target.shape[0], eta)))
    return ad.sum_reduce(ad.absolute(dev))


def temporal_loss(x: ad.Tensor) -> ad.Tensor:
    """Coherence of neighbouring frames of the perturbed input.

    Every frame contributes its distance to the previous and to the next
    frame; the missing neighbours of the first and last frame are
    dropped, so each adjacent pair is counted exactly twice.
    """
    frames = x.value.shape[0]
    if frames < 2:
        raise AttackError("temporal loss needs at least 2 frames")
    steps = ad.subtract(ad.slice_axis(x, 1, frames, axis=0),
                        ad.slice_axis(x, 0, frames - 1, axis=0))
    return ad.scalar_multiply(ad.sum_reduce(ad.l2_norm(steps, axis=-1)), 2.0)


def adv_loss(model, x: ad.Tensor, target: np.ndarray, cfg: AttackConfig
             ) -> tuple[ad.Tensor, ad.Tensor]:
    """Combined objective as a differentiable node; also returns the output."""
    eta = _eta(cfg.kappa, target.shape[0])
    output = model.forward(x)
    loss = spatial_loss(output, target, eta)
    if cfg.lam > 0.0:
        loss = ad.add(loss, ad.scalar_multiply(temporal_loss(x), cfg.lam))
    return loss, output


def _eta(kappa: float | None, frames: int) -> float:
    if kappa is None:
        raise AttackError("attack config needs a kappa tolerance")
    # an unbounded tolerance degenerates the sphere to the target itself
    if math.isinf(kappa):
        return 0.0
    return kappa / frames


# ---------------------------------------------------------------------------
# projected update


# the coordinates of one joint's (x, y, depth) that each mask moves
_MOVABLE = {"depth": np.array([False, False, True]), "all": np.array([True, True, True])}


def pgd_step(x_nat: np.ndarray, x_adv: np.ndarray, grad: np.ndarray,
             cfg: AttackConfig, adam_state: AdamState | None = None
             ) -> tuple[np.ndarray, AdamState | None]:
    """One projected update of the adversarial sequence.

    The sign rule takes a fixed step against the gradient; the adam rule
    substitutes an Adam step on the input.  Either way the perturbation
    is clipped into the epsilon box around the natural input, clamped to
    the domain data.LOWER..UPPER of each joint's (x, y, depth), and frozen
    coordinates are restored exactly.  A box that misses the domain (a
    movable natural coordinate over epsilon outside it) raises AttackError.
    """
    if not (x_nat.shape == x_adv.shape == grad.shape):
        raise AttackError(
            f"shapes differ: {x_nat.shape}, {x_adv.shape}, {grad.shape}")
    if cfg.update_rule == "adam":
        stepped, adam_state = adam_update({"x": x_adv}, {"x": grad}, adam_state,
                                          lr=cfg.adam_lr)
        candidate = stepped["x"]
    else:
        candidate = x_adv - cfg.alpha * np.sign(grad)
    delta = np.clip(candidate - x_nat, -cfg.epsilon, cfg.epsilon)
    joints = x_nat.reshape(x_nat.shape[0], -1, 3)
    projected = np.where(_MOVABLE[cfg.mask],
                         np.clip(joints + delta.reshape(joints.shape), LOWER, UPPER),
                         joints).reshape(x_nat.shape)
    # rounding in x_nat + delta can overshoot the box by an ulp; nudge those
    # coordinates back so |x' - x| <= epsilon holds exactly on recomputation
    over = np.abs(projected - x_nat) > cfg.epsilon
    while np.any(over):
        projected[over] = np.nextafter(projected[over], x_nat[over])
        nudged = projected.reshape(joints.shape)
        if np.any(over & ((nudged < LOWER) | (nudged > UPPER)).reshape(x_nat.shape)):
            raise AttackError("a natural coordinate lies more than epsilon outside the domain")
        over = np.abs(projected - x_nat) > cfg.epsilon
    return projected, adam_state


# ---------------------------------------------------------------------------
# the attack loop


def _as_flat(seq) -> np.ndarray:
    if isinstance(seq, SkeletonSequence):
        return seq.flat()
    arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim != 2:
        raise AttackError(f"sequence must be 2-D (T, 3N), got {arr.shape}")
    return arr


def run_attack(model, x, cfg: AttackConfig, on_step=None) -> AttackResult:
    """Craft an adversarial input for `model` starting at natural input `x`.

    Starts from the unperturbed input and applies cfg.steps projected
    updates.  Every iterate (the start included) is scored by the summed
    output-to-target distance, and the best-scoring iterate is returned,
    so an input whose natural output already meets the tolerance counts
    as an immediate success.  `on_step(m, x_adv)` is invoked after every
    update for callers that want to watch the iterates.  cfg.steps is
    nominal: with a deterministic forward, once a sign-rule update repeats
    one of the last _CYCLE_WINDOW iterates bit for bit, evaluation stops and
    the traces (still cfg.steps + 1 long) and `on_step` are filled from the
    cycle.  Adam carries moments, so it runs every step.
    """
    x_nat = _as_flat(x)
    if cfg.target is None:
        raise AttackError("attack config needs a target sequence")
    target = _as_flat(cfg.target)
    if target.shape != x_nat.shape:
        raise AttackError(
            f"target shape {target.shape} does not match input {x_nat.shape}")

    x_adv = x_nat.copy()
    adam_state = None
    loss_trace: list[float] = []
    dist_trace: list[float] = []
    best_x = x_adv
    best_dist = math.inf
    best_step = 0
    window = deque([x_adv.tobytes()], _CYCLE_WINDOW if cfg.update_rule == "pgd" else 0)
    # a diverging attack ends in AttackDivergedError, not in numpy warnings
    with np.errstate(all="ignore"):
        for m in range(cfg.steps + 1):
            xt = ad.Tensor(x_adv, requires_grad=True)
            loss, output = adv_loss(model, xt, target, cfg)
            loss_value = float(loss.value)
            if not math.isfinite(loss_value):
                raise AttackDivergedError(m)
            dist = distance_sum(output.value, target)
            loss_trace.append(loss_value)
            dist_trace.append(dist)
            if dist < best_dist:
                best_dist = dist
                best_x = x_adv
                best_step = m
            if m == cfg.steps:
                break
            ad.backward(loss)
            grad = xt.grad if xt.grad is not None else np.zeros_like(x_adv)
            x_adv, adam_state = pgd_step(x_nat, x_adv, grad, cfg, adam_state)
            if on_step is not None:
                on_step(m, x_adv.copy())
            if (key := x_adv.tobytes()) in window:  # x_{m+1} = x_j starts a cycle
                cycle = list(window)[window.index(key):]
                for k in range(m + 1, cfg.steps + 1):
                    loss_trace.append(loss_trace[k - len(cycle)])
                    dist_trace.append(dist_trace[k - len(cycle)])
                    if on_step is not None and k < cfg.steps:
                        on_step(k, np.frombuffer(cycle[(k - m) % len(cycle)])
                                .reshape(x_nat.shape).copy())
                break
            window.append(key)

    success = best_dist < cfg.kappa
    return AttackResult(
        adversarial=SkeletonSequence.from_flat(best_x),
        loss_trace=loss_trace,
        distance_trace=dist_trace,
        distance_sum=best_dist,
        success=success,
        max_perturbation=float(np.max(np.abs(best_x - x_nat))),
        best_step=best_step,
        config=cfg,
    )


def result_to_dict(result: AttackResult) -> dict:
    return {
        "config": {key: getattr(result.config, name) for key, name in SETTINGS.items()},
        "loss_trace": result.loss_trace,
        "distance_trace": result.distance_trace,
        "distance_sum": result.distance_sum,
        "success": result.success,
        "max_perturbation": result.max_perturbation,
        "best_step": result.best_step,
        "adversarial": result.adversarial.flat().tolist(),
    }

"""Correctness checks on what the package returns.

Every check compares against the reference computations or against a
property the method must have, never against a stored copy of earlier
output.  A failed check raises CheckFailed; the benchmark then reports
correct = false.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import reference

FORWARD_TOL = 1e-9      # relative to the output scale; the planted 1e-6 fault is far above it
GRADIENT_TOL = 1e-4


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_forward(output: np.ndarray, ref_output: np.ndarray, what: str) -> None:
    require(output.shape == ref_output.shape,
            f"{what}: output shape {output.shape}, reference {ref_output.shape}")
    scale = max(1.0, float(np.max(np.abs(ref_output))))
    worst = float(np.max(np.abs(output - ref_output)))
    require(worst <= FORWARD_TOL * scale,
            f"{what}: forward differs from the reference by {worst:.3g}")


def check_attack(natural: np.ndarray, adversarial: np.ndarray, epsilon: float,
                 distance: float, distance_trace: list[float], success: bool,
                 kappa: float, ref_output: np.ndarray, target: np.ndarray,
                 what: str) -> None:
    """Invariants of one depth-masked attack result.

    `distance`, `distance_trace` and `success` are what the package
    reported; `ref_output` is the reference forward of `adversarial`.
    """
    require(bool(np.all(np.abs(adversarial - natural) <= epsilon)),
            f"{what}: perturbation exceeds epsilon={epsilon}")
    frozen = ~reference.depth_mask(natural.shape[1])
    require(np.array_equal(adversarial[:, frozen], natural[:, frozen]),
            f"{what}: a non-depth coordinate changed")
    lo, hi = reference.domain_bounds(natural.shape[1])
    require(bool(np.all((adversarial >= lo) & (adversarial <= hi))),
            f"{what}: a coordinate left the domain")
    ref_distance = reference.distance_sum(ref_output, target)
    require(abs(ref_distance - distance) <= FORWARD_TOL * max(1.0, ref_distance),
            f"{what}: distance {distance!r} but reference gives {ref_distance!r}")
    require(distance <= distance_trace[0],
            f"{what}: best iterate {distance!r} is worse than step 0 "
            f"({distance_trace[0]!r})")
    require(success == (ref_distance < kappa),
            f"{what}: success={success} but distance {ref_distance!r} vs kappa {kappa!r}")


def check_gradient(analytic: np.ndarray, loss_of_input, x: np.ndarray,
                   coords: list[tuple[int, int]], what: str) -> None:
    """Autodiff input gradient against central differences of the reference loss."""
    numeric = reference.central_difference(loss_of_input, x, coords)
    picked = np.array([analytic[t, j] for t, j in coords])
    denom = np.maximum(1.0, np.maximum(np.abs(picked), np.abs(numeric)))
    worst = float(np.max(np.abs(picked - numeric) / denom))
    require(worst < GRADIENT_TOL, f"{what}: input gradient off by {worst:.3g}")


def check_flags_equal(expected: list[bool], got: list[bool], what: str) -> None:
    require(list(expected) == list(got), f"{what}: flags {got} != {expected}")


def check_training(history: list[float], what: str) -> None:
    require(len(history) > 1 and all(np.isfinite(history)),
            f"{what}: loss history is empty or not finite")
    require(history[-1] < history[0],
            f"{what}: loss did not fall ({history[0]!r} -> {history[-1]!r})")


def check_causal_prefix(predict, x: np.ndarray, rng: np.random.Generator,
                        what: str) -> None:
    """Changing frames after t must leave outputs up to t bit-identical."""
    base = predict(x)
    for t in sorted(rng.choice(x.shape[0] - 1, size=2, replace=False)):
        bumped = x.copy()
        bumped[t + 1:] += rng.uniform(-0.05, 0.05, size=bumped[t + 1:].shape)
        require(np.array_equal(predict(bumped)[:t + 1], base[:t + 1]),
                f"{what}: output up to frame {t} changed with later frames")


def check_same_params(a: dict, b: dict, what: str) -> None:
    require(sorted(a) == sorted(b), f"{what}: parameter names differ")
    for name in a:
        require(np.array_equal(a[name], b[name]), f"{what}: parameter {name} changed")


def check_arrays_equal(a: np.ndarray, b: np.ndarray, what: str) -> None:
    require(np.array_equal(a, b), f"{what}: arrays differ")


def file_digests(root: Path, names: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def check_same_bytes(first: dict[str, str], again: dict[str, str], what: str) -> None:
    differ = sorted(n for n in first if first[n] != again.get(n))
    require(not differ, f"{what}: bytes differ for {differ}")


def check_no_locks(root: Path) -> None:
    locks = sorted(str(p) for p in root.rglob(".lock"))
    require(not locks, f"lock files left behind: {locks}")

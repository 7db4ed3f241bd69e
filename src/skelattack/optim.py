"""Adam parameter updates over named arrays.

Works on plain dicts mapping parameter names to float64 ndarrays, so the
same routine serves model training and optimizer-driven input updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the bias-correction step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
    )


def adam_update(params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray],
                state: AdamState | None = None,
                lr: float = 0.001) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam step (BETA1, BETA2, EPS); returns fresh params and state."""
    if state is None:
        state = init_adam(params)
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ValueError("adam_update: params, grads and state must share keys")
    t = state.step + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or state.m[name].shape != p.shape:
            raise ValueError(
                f"adam_update: shape mismatch for {name!r}: "
                f"param {p.shape}, grad {g.shape}")
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(new_m, new_v, t)

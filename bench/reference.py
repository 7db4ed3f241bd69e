"""Plain-numpy reference computations the benchmark checks the package against.

Written from the architecture equations and the attack definition, not
from the package: the forwards read only a params dict and a config
dict (the two halves of a checkpoint), and nothing here imports
skelattack.
"""

from __future__ import annotations

import math

import numpy as np

# coordinate domain of the capture format: x and y in [0, 1], depth in [0, 7.8125]
COORD_LO = (0.0, 0.0, 0.0)
COORD_HI = (1.0, 1.0, 7.8125)


def domain_bounds(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tile(COORD_LO, dim // 3), np.tile(COORD_HI, dim // 3)


def depth_mask(dim: int) -> np.ndarray:
    """True on the depth coordinate, the third of every (x, y, depth) triple."""
    return np.arange(dim) % 3 == 2


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def tcn_forward(config: dict, params: dict, x: np.ndarray) -> np.ndarray:
    """Residual stack of causal dilated convolutions, then a linear head.

    Layer i: h <- relu(sum_k W_k^T h[t - (K-1-k) d_i] + b_i + R h[t]), where
    frames before the start are zero and R is the identity or, when the
    channel count changes, the learned projection.
    """
    h = np.asarray(x, dtype=np.float64)
    frames = h.shape[0]
    width = config["kernel_width"]
    for i, dilation in enumerate(config["dilations"]):
        w = params[f"conv{i}_w"]
        pre = np.zeros((frames, w.shape[2]))
        for k in range(width):
            shift = (width - 1 - k) * dilation
            if shift < frames:
                pre[shift:] += h[:frames - shift] @ w[k]
        pre += params[f"conv{i}_b"]
        res = h @ params[f"proj{i}_w"] if f"proj{i}_w" in params else h
        h = np.maximum(pre + res, 0.0)
    return h @ params["head_w"] + params["head_b"]


def gru_forward(config: dict, params: dict, x: np.ndarray) -> np.ndarray:
    """Stacked gated recurrent layers (update z, reset r, candidate n), then a head.

    Per layer and frame: z, r = sigmoid(x_t W_zr + b_zr + h U_zr + c_zr),
    n = tanh(x_t W_n + b_n + r * (h U_n + c_n)), h = (1 - z) n + z h.
    """
    seq = np.asarray(x, dtype=np.float64)
    sizes = [hidden for count, hidden in config["stack"] for _ in range(count)]
    for i, hidden in enumerate(sizes):
        w, u = params[f"gru{i}_w"], params[f"gru{i}_u"]
        bi, bh = params[f"gru{i}_bi"], params[f"gru{i}_bh"]
        h = np.zeros(hidden)
        outs = []
        for x_t in seq:
            xp = x_t @ w + bi
            hu = h @ u + bh
            z = _sigmoid(xp[:hidden] + hu[:hidden])
            r = _sigmoid(xp[hidden:2 * hidden] + hu[hidden:2 * hidden])
            n = np.tanh(xp[2 * hidden:] + r * hu[2 * hidden:])
            h = (1.0 - z) * n + z * h
            outs.append(h)
        seq = np.stack(outs)
    return seq @ params["head_w"] + params["head_b"]


def forward(arch: str, config: dict, params: dict, x: np.ndarray) -> np.ndarray:
    if arch == "tcn":
        return tcn_forward(config, params, x)
    if arch == "gru":
        return gru_forward(config, params, x)
    raise ValueError(f"unknown architecture {arch!r}")


def distance_sum(output: np.ndarray, target: np.ndarray) -> float:
    """Sum over frames of the Euclidean distance between output and target frames."""
    return float(sum(math.sqrt(float(np.dot(d, d))) for d in output - target))


def attack_loss(output: np.ndarray, x: np.ndarray, target: np.ndarray,
                kappa: float, lam: float) -> float:
    """Sphere loss plus weighted temporal loss.

    Sphere: sum_t | ||o_t - y_t|| - eta | with eta = kappa / T (0 for an
    unbounded kappa).  Temporal: every adjacent input pair counted twice,
    2 * sum_t ||x_{t+1} - x_t||.
    """
    frames = target.shape[0]
    eta = 0.0 if math.isinf(kappa) else kappa / frames
    sphere = sum(abs(math.sqrt(float(np.dot(d, d))) - eta) for d in output - target)
    if lam == 0.0:
        return float(sphere)
    temporal = 2.0 * sum(math.sqrt(float(np.dot(d, d))) for d in np.diff(x, axis=0))
    return float(sphere + lam * temporal)


def central_difference(f, x: np.ndarray, coords, step: float = 1e-5) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / 2h at each (frame, column) in coords."""
    grads = []
    for t, j in coords:
        plus = x.copy()
        plus[t, j] += step
        minus = x.copy()
        minus[t, j] -= step
        grads.append((f(plus) - f(minus)) / (2.0 * step))
    return np.array(grads)

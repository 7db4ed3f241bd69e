"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
replays the graph in reverse topological order and accumulates adjoints.
Only the operations needed by the sequence regressors and the attack
losses are implemented.  Sequence operands are (T, C), or (B, T, C) for
a batch of B equal-length sequences: matmul, causal_conv1d, gru_layer
and the row-bias add/subtract compute each sample of a batch bitwise as
they compute it alone, and add the shared weights' adjoints up over the
batch in sample order.  Their forward products run one BLAS
matrix-vector product per row (_rows_times), so output frame t is also
bitwise the same however many frames follow it; a matrix-matrix product
over all rows would round differently with their count.  There is no
general broadcasting; the single exception is adding a row vector to
every row, which linear layers use for their bias term.

Graph construction and backward are single-threaded per graph instance.
Distinct graphs share no mutable state and may live on distinct threads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with an operation."""

    def __init__(self, op: str, *shapes):
        pretty = ", ".join(str(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes ({pretty})")


class Tensor:
    """Node of the computation graph: a float64 array plus its adjoint."""

    __slots__ = ("value", "grad", "requires_grad", "_children", "_backward_fn")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._children: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    def accumulate(self, g: np.ndarray, index=None) -> None:
        """Add `g` onto the adjoint, or onto its `index` part only.

        A first whole adjoint is g + 0.0, a fresh array bitwise equal to
        zeros + g (so -0.0 becomes +0.0) without the zero fill.
        """
        if self.grad is None and index is None:
            self.grad = g + 0.0
        elif index is None:
            self.grad += g
        else:
            if self.grad is None:
                self.grad = np.zeros_like(self.value)
            self.grad[index] += g


def _result(value: np.ndarray, children: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; the backward closure is kept only on live paths."""
    out = Tensor(value)
    if any(c.requires_grad for c in children):
        out.requires_grad = True
        out._children = children
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# operations


def _row_bias(op: str, va: np.ndarray, vb: np.ndarray) -> bool:
    """The elementwise shape rule: equal shapes, or b a row added to every row of a."""
    if va.shape == vb.shape:
        return False
    if va.ndim in (2, 3) and vb.ndim == 1 and va.shape[-1] == vb.shape[0]:
        return True
    raise ShapeError(op, va.shape, vb.shape)


def _bias_adjoint(g: np.ndarray) -> np.ndarray:
    """The adjoint of a row added to every row of a (T, C) or (B, T, C) operand.

    Rows are summed per sample, then the samples in sample order, so the
    result is bitwise what a loop over the samples accumulates.
    """
    per_sample = g.sum(axis=-2)
    return per_sample.sum(axis=0) if per_sample.ndim == 2 else per_sample


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x w for x (..., C) and w (C, K), one matrix-vector product per row of x."""
    return np.matmul(w.T, x[..., None])[..., 0]


def _weight_adjoint(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint a^T g of a weight that every sample of a batch shares.

    a is (T, C) and g is (T, K), or (B, T, C) and (B, T, K).  The
    per-sample products are added one at a time in sample order, so the
    result is bitwise what a loop over the samples accumulates, and no
    (B, C, K) array is formed.
    """
    if a.ndim == 2:
        return a.T @ g
    total = a[0].T @ g[0]
    for a_b, g_b in zip(a[1:], g[1:]):
        total += a_b.T @ g_b
    return total


def add(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.value, b.value
    row_bias = _row_bias("add", va, vb)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(_bias_adjoint(g) if row_bias else g)

    return _result(va + vb, (a, b), backward_fn)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.value, b.value
    row_bias = _row_bias("subtract", va, vb)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-(_bias_adjoint(g) if row_bias else g))

    return _result(va - vb, (a, b), backward_fn)


def scalar_multiply(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)

    def backward_fn(g):
        a.accumulate(g * s)

    return _result(a.value * s, (a,), backward_fn)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.value, b.value
    if va.shape != vb.shape:
        raise ShapeError("multiply", va.shape, vb.shape)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g * vb)
        if b.requires_grad:
            b.accumulate(g * va)

    return _result(va * vb, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.value, b.value
    if va.ndim not in (2, 3) or vb.ndim != 2 or va.shape[-1] != vb.shape[0]:
        raise ShapeError("matmul", va.shape, vb.shape)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g @ vb.T)
        if b.requires_grad:
            b.accumulate(_weight_adjoint(va, g))

    return _result(_rows_times(va, vb), (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    va = a.value

    def backward_fn(g):
        a.accumulate(g * (va > 0.0))

    return _result(np.maximum(va, 0.0), (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def backward_fn(g):
        a.accumulate(g * (1.0 - out * out))

    return _result(out, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.value))

    def backward_fn(g):
        a.accumulate(g * out * (1.0 - out))

    return _result(out, (a,), backward_fn)


def absolute(a: Tensor) -> Tensor:
    va = a.value

    # np.sign(0) == 0, so the subgradient at the kink is 0.
    def backward_fn(g):
        a.accumulate(g * np.sign(va))

    return _result(np.abs(va), (a,), backward_fn)


def sum_reduce(a: Tensor) -> Tensor:
    def backward_fn(g):
        a.accumulate(np.full_like(a.value, float(g)))

    return _result(np.sum(a.value), (a,), backward_fn)


def l2_norm(a: Tensor, axis: int = -1) -> Tensor:
    va = a.value
    if va.ndim == 0:
        raise ShapeError("l2_norm", va.shape)
    norms = np.sqrt(np.sum(va * va, axis=axis))

    def backward_fn(g):
        safe = np.where(norms == 0.0, 1.0, norms)
        scale = np.expand_dims(g / safe, axis=axis)
        a.accumulate(scale * va)

    return _result(norms, (a,), backward_fn)


def concat_time(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_time")
    trailing = parts[0].value.shape[1:]
    for p in parts:
        if p.value.ndim == 0 or p.value.shape[1:] != trailing:
            raise ShapeError("concat_time", *(q.value.shape for q in parts))
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[lo:hi])

    return _result(np.concatenate([p.value for p in parts], axis=0), parts, backward_fn)


def slice_axis(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    va = a.value
    if axis not in (0, 1) or axis >= va.ndim:
        raise ShapeError("slice", va.shape)
    extent = va.shape[axis]
    if not (0 <= start < stop <= extent):
        raise ValueError(f"slice: range [{start}, {stop}) invalid for extent {extent}")
    index = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))

    def backward_fn(g):
        a.accumulate(g, index)

    return _result(va[index].copy(), (a,), backward_fn)


def causal_conv1d(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """Causal dilated 1-D convolution over the time axis.

    x is (T, C_in), or (B, T, C_in) for a batch, and w is (K, C_in, C_out).
    Tap k looks (K-1-k)*dilation frames back, into zero frames before the
    start, so output frame t depends only on input frames <= t and the
    sequence length is preserved.  A tap that looks back T frames or more
    sees only zeros; it is skipped, its weight adjoint is zero, and the
    input is left-padded only as far as the kept taps reach.
    """
    vx, vw = x.value, w.value
    if vx.ndim not in (2, 3) or vw.ndim != 3 or vx.shape[-1] != vw.shape[1]:
        raise ShapeError("causal_conv1d", vx.shape, vw.shape)
    if dilation < 1:
        raise ValueError(f"causal_conv1d: dilation must be >= 1, got {dilation}")
    frames = vx.shape[-2]
    width = vw.shape[0]
    reach = min(width - 1, max(frames - 1, 0) // dilation)  # lag of the first kept tap
    pad = reach * dilation
    padded = np.zeros(vx.shape[:-2] + (pad + frames, vx.shape[-1]))
    padded[..., pad:, :] = vx
    # (tap, its window of padded frames), longest lag first
    taps = [(k, slice(j * dilation, j * dilation + frames))
            for j, k in enumerate(range(width - 1 - reach, width))]
    out = np.zeros(vx.shape[:-1] + (vw.shape[2],))
    for k, window in taps:
        out += _rows_times(padded[..., window, :], vw[k])

    def backward_fn(g):
        if w.requires_grad:
            gw = np.zeros_like(vw)
            for k, window in taps:
                gw[k] = _weight_adjoint(padded[..., window, :], g)
            w.accumulate(gw)
        if x.requires_grad:
            gp = np.zeros_like(padded)
            for k, window in taps:
                gp[..., window, :] += g @ vw[k].T
            x.accumulate(gp[..., pad:, :])

    return _result(out, (x, w), backward_fn)


def gru_layer(xp: Tensor, u: Tensor, bh: Tensor) -> Tensor:
    """One gated recurrent layer run over a whole sequence (Cho et al. 2014).

    xp is the projected input (T, 3H), or (B, T, 3H) for a batch, in
    blocks [z | r | n], u the recurrent weight (H, 3H) and bh its bias
    (3H,).  From h = 0, frame t computes

        hu = h u + bh
        z, r = sigmoid(xp_t[:2H] + hu[:2H])
        n = tanh(xp_t[2H:] + r * hu[2H:])
        h = (1 - z) * n + z * h

    and the output is the sequence of states h (T, H) or (B, T, H); each
    frame's rows are the samples of the batch.  Backward runs the
    recurrence from the last frame to the first (backpropagation through
    time) and carries only the state's adjoint between frames.
    """
    vx, vu, vb = xp.value, u.value, bh.value
    hidden = vx.shape[-1] // 3 if vx.ndim in (2, 3) else 0
    if (hidden < 1 or vx.shape[-2] < 1 or vx.shape[-1] != 3 * hidden
            or vu.shape != (hidden, 3 * hidden) or vb.shape != (3 * hidden,)):
        raise ShapeError("gru_layer", vx.shape, vu.shape, vb.shape)
    # time-major (T, B, .) views and gate caches; the unbatched case is a
    # batch of one.  The states and the input adjoint are batch-major, the
    # layout they leave the op in.
    xs = (vx if vx.ndim == 3 else vx[None]).swapaxes(0, 1)
    frames, batch, two = xs.shape[0], xs.shape[1], 2 * hidden
    out = np.empty((batch, frames, hidden))
    zr = np.empty((frames, batch, two))
    n = np.empty((frames, batch, hidden))
    hn = np.empty((frames, batch, hidden))  # h u_n + c_n, the term r gates
    h = np.zeros((batch, hidden))
    for t in range(frames):
        hu = _rows_times(h, vu) + vb
        zr[t] = 1.0 / (1.0 + np.exp(-(xs[t, :, :two] + hu[:, :two])))
        z, r = zr[t, :, :hidden], zr[t, :, hidden:]
        hn[t] = hu[:, two:]
        n[t] = np.tanh(xs[t, :, two:] + r * hn[t])
        h = (1.0 - z) * n[t] + z * h
        out[:, t] = h

    def backward_fn(g):
        gs = (g if g.ndim == 3 else g[None]).swapaxes(0, 1)
        # the factors free of the carried adjoint, for all frames at once;
        # the products with it below keep their per-frame order
        z, r = zr[..., :hidden], zr[..., hidden:]
        one_z, one_r, one_nn = 1.0 - z, 1.0 - r, 1.0 - n * n
        prev_n = np.empty_like(n)  # h_{t-1} - n_t, from the zero state
        prev_n[0] = 0.0 - n[0]
        prev_n[1:] = out[:, :-1].swapaxes(0, 1) - n[1:]
        dxp = np.empty((batch, frames, 3 * hidden))
        dhu = np.empty(xs.shape)  # adjoint of h u + bh, per frame
        dh = np.zeros((batch, hidden))
        for t in range(frames - 1, -1, -1):
            dh = dh + gs[t]
            z_t, r_t, one_z_t, dxp_t, dhu_t = z[t], r[t], one_z[t], dxp[:, t], dhu[t]
            dn = dh * one_z_t * one_nn[t]
            dxp_t[:, :hidden] = dh * prev_n[t] * z_t * one_z_t
            dxp_t[:, hidden:two] = dn * hn[t] * r_t * one_r[t]
            dxp_t[:, two:] = dn
            dhu_t[:, :two] = dxp_t[:, :two]
            dhu_t[:, two:] = dn * r_t
            dh = dh * z_t + _rows_times(dhu_t, vu.T)
        if xp.requires_grad:
            xp.accumulate(dxp.reshape(vx.shape))
        if u.requires_grad:
            # the initial state is zero, so frame 0 adds nothing to du
            u.accumulate(_weight_adjoint(out[:, :-1], dhu[1:].swapaxes(0, 1)))
        if bh.requires_grad:
            # over the frames, then over the batch
            bh.accumulate(dhu.sum(axis=0).sum(axis=0))

    return _result(out.reshape(vx.shape[:-1] + (hidden,)), (xp, u, bh), backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the live (requires_grad) part of the graph.

    Iterative so deep recurrent graphs do not hit the recursion limit;
    child tuples are ordered at construction, so the order is reproducible.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if child.requires_grad and id(child) not in seen:
                stack.append((child, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate adjoints of `root` into the .grad of every differentiable leaf.

    Only leaves keep their adjoints; an interior node's adjoint is
    released once it has been passed on.  Leaf adjoints add onto existing
    ones; set the leaves' .grad to None first to re-run a backward pass
    from scratch.
    """
    if root.value.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    root.accumulate(np.ones_like(root.value))
    for node in reversed(order):
        if node.grad is not None and node._backward_fn is not None:
            node._backward_fn(node.grad)
            # every consumer has added its share, so the interior adjoint is
            # spent; dropping it now keeps one frontier of adjoints alive
            node.grad = None

"""Forward values, adjoints and graph invariants of the autodiff core."""

import numpy as np
import pytest

from skelattack import autodiff as ad

from tests.helpers import (conv_full_padding_oracle, fd_gradients, forward_op, max_rel_err,
                           zero_grad)

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def test_matmul_identity():
    x = ad.Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    eye = ad.Tensor(np.eye(2))
    out = ad.matmul(eye, x)
    assert np.array_equal(out.value, x.value)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(7, 4)))
    w = ad.Tensor(np.eye(4)[None])  # width 1, dilation 1
    out = ad.causal_conv1d(x, w, dilation=1)
    assert np.array_equal(out.value, x.value)


def test_l2_norm_pythagorean():
    v = ad.Tensor([3.0, 4.0])
    assert float(ad.l2_norm(v, axis=-1).value) == 5.0


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    ad.backward(ad.sum_reduce(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


SINGLE_INPUT_OPS = {
    "scalar_multiply": lambda a: ad.scalar_multiply(a, 2.0),
    "relu": ad.relu,
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "absolute": ad.absolute,
    "sum_reduce": ad.sum_reduce,
    "l2_norm": ad.l2_norm,
    "slice": lambda a: ad.slice_axis(a, 0, 1),
}


@pytest.mark.parametrize("op", SINGLE_INPUT_OPS)
def test_single_input_op_keeps_backward_only_when_its_child_requires_grad(op):
    # the single-input ops' backward closures add into their child unguarded
    value = np.arange(6.0).reshape(2, 3) - 2.0
    frozen = SINGLE_INPUT_OPS[op](ad.Tensor(value))
    assert not frozen.requires_grad and frozen._backward_fn is None
    a = ad.Tensor(value, requires_grad=True)
    live = SINGLE_INPUT_OPS[op](a)
    assert live.requires_grad and live._children == (a,)
    live._backward_fn(np.ones_like(live.value))
    assert a.grad.shape == value.shape


def test_backward_l2_norm_direction():
    v = ad.Tensor([3.0, 4.0], requires_grad=True)
    ad.backward(ad.l2_norm(v, axis=-1))
    assert np.allclose(v.grad, [0.6, 0.8], atol=1e-12)


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.relu(x)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(y)


def test_shape_mismatch_names_op_and_shapes():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((3, 3)))
    with pytest.raises(ad.ShapeError) as exc:
        ad.add(a, b)
    assert "add" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_batch_axis_shape_errors():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 5, 4))), ad.Tensor(np.ones((2, 4, 3))))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.Tensor(np.ones((2, 5, 4))), ad.Tensor(np.ones((5, 4))))
    with pytest.raises(ad.ShapeError, match="causal_conv1d"):
        ad.causal_conv1d(ad.Tensor(np.ones((1, 2, 5, 4))), ad.Tensor(np.ones((3, 4, 2))))
    with pytest.raises(ad.ShapeError, match="gru_layer"):
        ad.gru_layer(ad.Tensor(np.ones((1, 2, 5, 12))), ad.Tensor(np.ones((4, 12))),
                     ad.Tensor(np.ones(12)))


@pytest.mark.parametrize("kind,attrs", [("matmul", {}), ("causal_conv1d", {"dilation": 2}),
                                        ("gru_layer", {})])
def test_batched_op_rows_and_adjoints_match_per_sample(kind, attrs):
    # each row of a batched op is bitwise its own unbatched op, and the
    # shared weights' adjoints are the per-sample ones added in batch order
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(3, 6, 12))
    weights = {"matmul": [rng.normal(size=(12, 5))],
               "causal_conv1d": [rng.normal(size=(3, 12, 5))],
               "gru_layer": [rng.normal(size=(4, 12)), rng.normal(size=12)]}[kind]
    gs = rng.normal(size=forward_op(kind, [ad.Tensor(xs)] + [ad.Tensor(w) for w in weights],
                                    attrs).value.shape)

    def run(x, g):
        ins = [ad.Tensor(x, requires_grad=True)] + [ad.Tensor(w, requires_grad=True)
                                                    for w in weights]
        out = forward_op(kind, ins, attrs)
        out._backward_fn(g)
        return out.value, [t.grad for t in ins]

    out, grads = run(xs, gs)
    summed = [np.zeros_like(w) for w in weights]
    for b in range(xs.shape[0]):
        row, row_grads = run(xs[b], gs[b])
        assert np.array_equal(out[b], row)
        assert np.array_equal(grads[0][b], row_grads[0])
        for acc, g in zip(summed, row_grads[1:]):
            acc += g
    for batched, acc in zip(grads[1:], summed):
        assert np.array_equal(batched, acc)


def test_gru_layer_shape_mismatch():
    xp = ad.Tensor(np.ones((5, 12)))
    for u, bh in [((8, 24), 12), ((4, 12), 24), ((12, 4), 12), ((4, 4, 3), 12)]:
        with pytest.raises(ad.ShapeError, match="gru_layer"):
            ad.gru_layer(xp, ad.Tensor(np.ones(u)), ad.Tensor(np.ones(bh)))
    with pytest.raises(ad.ShapeError, match="gru_layer"):
        ad.gru_layer(ad.Tensor(np.ones((5, 10))), ad.Tensor(np.ones((3, 10))),
                     ad.Tensor(np.ones(10)))


def test_forward_op_unknown_kind():
    with pytest.raises(ValueError, match="unknown op kind"):
        forward_op("fourier", [ad.Tensor([1.0])])


def test_adjoint_reset_makes_backward_idempotent():
    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    root = ad.sum_reduce(ad.multiply(x, x))
    ad.backward(root)
    first = x.grad.copy()
    zero_grad(root)
    assert x.grad is None
    ad.backward(root)
    assert np.array_equal(x.grad, first)


def test_leaves_fed_one_adjoint_get_their_own_arrays():
    a = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = ad.Tensor([4.0, 5.0, 6.0], requires_grad=True)
    ad.backward(ad.sum_reduce(ad.add(a, b)))  # add hands one g to both leaves
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, [1.0, 1.0, 1.0])

    g = np.array([-0.0, 2.5])
    c = ad.Tensor([0.0, 0.0], requires_grad=True)
    c.accumulate(g)
    assert c.grad is not g and np.signbit(c.grad).tolist() == [False, False]
    c.accumulate(g)
    assert np.array_equal(c.grad, [0.0, 5.0])
    assert np.signbit(g[0]) and g[1] == 2.5


def test_repeated_use_of_leaf_accumulates():
    x = ad.Tensor([2.0], requires_grad=True)
    root = ad.sum_reduce(ad.add(ad.multiply(x, x), x))  # x^2 + x
    ad.backward(root)
    assert np.allclose(x.grad, [5.0])


# every op kind, checked against central finite differences ------------------

FRAMES = 5  # the sequence length of the gradient-check cases


def all_op_gradcheck_cases():
    rng = np.random.default_rng(42)
    t, c = FRAMES, 4
    # keep relu/absolute inputs away from their kinks relative to the fd step
    off_kink = lambda shape: rng.normal(size=shape) + np.sign(rng.normal(size=shape)) * 0.05
    return [
        ("add", [rng.normal(size=(t, c)), rng.normal(size=(t, c))], {}),
        ("add", [rng.normal(size=(t, c)), rng.normal(size=c)], {}),
        ("subtract", [rng.normal(size=(t, c)), rng.normal(size=(t, c))], {}),
        ("subtract", [rng.normal(size=(t, c)), rng.normal(size=c)], {}),
        ("scalar_multiply", [rng.normal(size=(t, c))], {"scalar": -1.7}),
        ("multiply", [rng.normal(size=(t, c)), rng.normal(size=(t, c))], {}),
        ("matmul", [rng.normal(size=(t, c)), rng.normal(size=(c, 3))], {}),
        ("concat_time", [rng.normal(size=(2, c)), rng.normal(size=(3, c))], {}),
        ("slice", [rng.normal(size=(t, c))], {"start": 1, "stop": 3, "axis": 0}),
        ("slice", [rng.normal(size=(t, 6))], {"start": 2, "stop": 5, "axis": 1}),
        ("relu", [off_kink((t, c))], {}),
        ("tanh", [rng.normal(size=(t, c))], {}),
        ("sigmoid", [rng.normal(size=(t, c))], {}),
        ("causal_conv1d", [rng.normal(size=(t, c)), rng.normal(size=(3, c, 2))],
         {"dilation": 2}),
        ("gru_layer", [rng.normal(size=(1, 3 * c)), rng.normal(size=(c, 3 * c)),
                       rng.normal(size=3 * c)], {}),
        ("gru_layer", [rng.normal(size=(t, 3 * c)), rng.normal(size=(c, 3 * c)),
                       rng.normal(size=3 * c)], {}),
        # a leading batch axis of B = 2 sequences
        ("add", [rng.normal(size=(2, t, c)), rng.normal(size=c)], {}),
        ("subtract", [rng.normal(size=(2, t, c)), rng.normal(size=c)], {}),
        ("matmul", [rng.normal(size=(2, t, c)), rng.normal(size=(c, 3))], {}),
        ("causal_conv1d", [rng.normal(size=(2, t, c)), rng.normal(size=(3, c, 2))],
         {"dilation": 2}),
        ("gru_layer", [rng.normal(size=(2, t, 3 * c)), rng.normal(size=(c, 3 * c)),
                       rng.normal(size=3 * c)], {}),
        ("sum_reduce", [rng.normal(size=(t, c))], {}),
        ("l2_norm", [rng.normal(size=(t, c)) + 0.5], {"axis": -1}),
        ("absolute", [off_kink((t, c))], {}),
        # every tap but the newest looks back past the first frame
        ("causal_conv1d", [rng.normal(size=(t, c)), rng.normal(size=(3, c, 2))],
         {"dilation": t}),
    ]


def op_gradcheck(kind, arrays, attrs, weights_seed=7):
    """Analytic vs finite-difference gradient for one op kind."""
    rng = np.random.default_rng(weights_seed)
    out_shape = forward_op(kind, [ad.Tensor(a) for a in arrays], attrs).value.shape
    weights = rng.normal(size=out_shape)

    def scalarize(arrs):
        out = forward_op(kind, [ad.Tensor(a) for a in arrs], attrs)
        return float(np.sum(out.value * weights))

    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = forward_op(kind, tensors, attrs)
    root = ad.sum_reduce(ad.multiply(out, ad.Tensor(weights)))
    ad.backward(root)
    numeric = fd_gradients(scalarize, [a.copy() for a in arrays], step=FD_STEP)
    errs = []
    for tensor, num in zip(tensors, numeric):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(num)
        errs.append(max_rel_err(analytic, num))
    return max(errs)


def case_id(value):
    """The op kind, "batched" for a (B, T, C) first operand, and
    "skipped-taps" for a convolution dilated past the first frame."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return "skipped-taps" if value.get("dilation", 1) >= FRAMES else ""
    return "batched" if value[0].ndim == 3 else ""


@pytest.mark.parametrize("kind,arrays,attrs", all_op_gradcheck_cases(), ids=case_id)
def test_gradcheck_per_op(kind, arrays, attrs):
    assert op_gradcheck(kind, arrays, attrs) < GRAD_TOL


def test_gradcheck_random_composite_graphs():
    # small random graphs mixing several ops, vs the same fd oracle
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.normal(size=(4, 3))
        w0 = rng.normal(size=(3, 3))

        def build(arrs):
            x, w = ad.Tensor(arrs[0]), ad.Tensor(arrs[1])
            return build_from(x, w)

        def build_from(x, w):
            h = ad.tanh(ad.matmul(x, w))
            h = ad.add(h, ad.sigmoid(x))
            n = ad.l2_norm(h, axis=-1)
            return ad.sum_reduce(ad.absolute(ad.subtract(n, ad.Tensor(np.full(4, 0.3)))))

        def scalarize(arrs):
            return float(build(arrs).value)

        xt = ad.Tensor(x0, requires_grad=True)
        wt = ad.Tensor(w0, requires_grad=True)
        ad.backward(build_from(xt, wt))
        gx, gw = fd_gradients(scalarize, [x0.copy(), w0.copy()], step=FD_STEP)
        assert max_rel_err(xt.grad, gx) < GRAD_TOL
        assert max_rel_err(wt.grad, gw) < GRAD_TOL


def test_conv_causality_exact():
    # perturbing frame t never changes outputs before t
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    w = rng.normal(size=(3, 3, 4))
    for dilation in (1, 2, 3):
        base = ad.causal_conv1d(ad.Tensor(x), ad.Tensor(w), dilation=dilation).value
        for t in range(10):
            bumped = x.copy()
            bumped[t] += rng.normal(size=3)
            out = ad.causal_conv1d(ad.Tensor(bumped), ad.Tensor(w), dilation=dilation).value
            assert np.array_equal(out[:t], base[:t])


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["single", "batched"])
def test_conv_skipped_taps_match_full_padding(shape):
    # T = 3 < (K - 1) * dilation: the taps that look 3 or more frames back
    # are skipped, and values and adjoints keep the fully padded op's bits
    rng = np.random.default_rng(11)
    x, w = rng.normal(size=shape), rng.normal(size=(3, 4, 5))
    g = rng.normal(size=shape[:-1] + (5,))
    for dilation in (2, 3, 4):
        xt, wt = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
        out = ad.causal_conv1d(xt, wt, dilation=dilation)
        out._backward_fn(g)
        want_out, want_gx, want_gw = conv_full_padding_oracle(x, w, dilation, g)
        assert np.array_equal(out.value, want_out)
        assert np.array_equal(xt.grad, want_gx)
        assert np.array_equal(wt.grad, want_gw)


@pytest.mark.parametrize("kind,shapes,attrs", [
    ("matmul", [(40, 45), (45, 256)], {}),
    ("matmul", [(40, 256), (256, 256)], {}),
    ("causal_conv1d", [(40, 256), (3, 256, 256)], {"dilation": 4}),
    ("gru_layer", [(40, 1536), (512, 1536), (1536,)], {}),
], ids=["matmul-45x256", "matmul-256x256", "causal_conv1d-256x256", "gru_layer-512"])
def test_prefix_rows_bitwise_at_full_widths(kind, shapes, attrs):
    # frame t of the op on x[:t'] is bitwise frame t of the op on x, at the
    # widths of the `full` presets
    rng = np.random.default_rng(13)
    x, *weights = [ad.Tensor(rng.uniform(-1.0, 1.0, size=s) / np.sqrt(s[0])) for s in shapes]
    full = forward_op(kind, [x] + weights, attrs).value
    for t in range(1, full.shape[0] + 1):
        prefix = forward_op(kind, [ad.Tensor(x.value[:t])] + weights, attrs).value
        assert np.array_equal(prefix, full[:t]), t


def test_backward_linearity():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(3, 3))
    a, b = 2.5, -0.75

    def f_of(x):
        return ad.sum_reduce(ad.tanh(x))

    def g_of(x):
        return ad.sum_reduce(ad.multiply(x, x))

    xt = ad.Tensor(x0, requires_grad=True)
    combo = ad.add(ad.scalar_multiply(f_of(xt), a), ad.scalar_multiply(g_of(xt), b))
    ad.backward(combo)
    combined = xt.grad.copy()

    xf = ad.Tensor(x0, requires_grad=True)
    ad.backward(f_of(xf))
    xg = ad.Tensor(x0, requires_grad=True)
    ad.backward(g_of(xg))
    assert np.allclose(combined, a * xf.grad + b * xg.grad, rtol=1e-12, atol=1e-12)

"""Shared test oracles: finite differences, sphere sampling, op dispatch,
the fully padded convolution, the recurrent layer built from primitive
autodiff ops and the per-pair training loop, plus small helpers that
only tests need.

The finite-difference and sampling oracles stay deliberately independent
of the library's own gradient and loss code so they can serve as ground
truth for it.  The primitive-op GRU graph is the per-frame graph the
fused `gru_layer` op replaced; it checks the fused op's values and
adjoints against ops that are each gradient-checked on their own.  The
per-pair training loop is the one batched training replaced: one graph
per pair per epoch.  The every-step attack loop is the one that stops at a
repeated sign-rule iterate replaced.
"""

import dataclasses
import json
import math

import numpy as np

from skelattack import attack
from skelattack import autodiff as ad
from skelattack.data import SkeletonSequence
from skelattack.optim import adam_update


def fd_gradients(f, arrays, step=1e-5):
    """Central finite-difference gradients of scalar f w.r.t. each array.

    `f` is called as f(arrays) and must depend on the arrays' current
    contents; entries are perturbed in place and restored.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f(arrays)
            flat[i] = orig - step
            f_minus = f(arrays)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(grad)
    return grads


def max_rel_err(analytic, numeric):
    """Largest elementwise deviation, relative with an absolute floor of 1."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def sampled_sphere_min(point, center, radius, n_samples, rng):
    """Minimum distance from `point` to uniform samples on a sphere."""
    directions = rng.normal(size=(n_samples, center.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    samples = center[None, :] + radius * directions
    return float(np.min(np.linalg.norm(samples - point[None, :], axis=1)))


def brute_distance_sum(output, target):
    """Reference success metric: per-frame L2 distances, summed over time."""
    return float(sum(np.linalg.norm(o - t) for o, t in zip(output, target)))


def corrupt_checkpoint(path, name, shape=None):
    """Delete parameter `name` from a checkpoint file, or give it zeros of `shape`."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if shape is None:
        del payload["params"][name]
    else:
        payload["params"][name] = {"shape": list(shape),
                                   "data": [0.0] * int(np.prod(shape))}
    path.write_text(json.dumps(payload), encoding="utf-8")


def zero_kernel_width(path):
    """Edit a tcn checkpoint file to kernel_width 0, with empty convolution weights to match."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"]["kernel_width"] = 0
    for name, entry in payload["params"].items():
        if name.startswith("conv") and name.endswith("_w"):
            entry["shape"][0] = 0
            entry["data"] = []
    path.write_text(json.dumps(payload), encoding="utf-8")


def mse(pred, target):
    """Mean squared error over every coordinate of every frame."""
    diff = pred - target
    return float(np.mean(diff * diff))


def serialize_sbu(record):
    """Render a record back into the capture text layout that parse_sbu_file reads."""
    lines = []
    flat_a = record.actor.flat()
    flat_b = record.reactor.flat()
    for t in range(record.actor.num_frames):
        fields = [str(t + 1)]
        fields.extend(repr(float(v)) for v in flat_a[t])
        fields.extend(repr(float(v)) for v in flat_b[t])
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def zero_grad(root):
    """Reset adjoints on the live graph below (and including) `root`."""
    for node in ad._topo_order(root):
        node.grad = None


def sweep_cell(report, objective, epsilon):
    """The cell of a sweep report for one objective label and one epsilon."""
    for c in report.cells:
        if c.objective == objective and c.epsilon == epsilon:
            return c
    raise KeyError((objective, epsilon))


def conv_full_padding_oracle(x, w, dilation, g):
    """causal_conv1d padded with all (K-1)*dilation zero frames, every tap run.

    x is (T, C_in) or (B, T, C_in), w (K, C_in, C_out) and g the output's
    adjoint; returns the output and the adjoints of x and w, each tap's
    products taken as the op takes them.
    """
    frames, width = x.shape[-2], w.shape[0]
    pad = (width - 1) * dilation
    padded = np.zeros(x.shape[:-2] + (pad + frames, x.shape[-1]))
    padded[..., pad:, :] = x
    out = np.zeros(x.shape[:-1] + (w.shape[2],))
    gp = np.zeros_like(padded)
    gw = np.empty_like(w)
    for k in range(width):
        window = slice(k * dilation, k * dilation + frames)
        out += ad._rows_times(padded[..., window, :], w[k])
        gp[..., window, :] += g @ w[k].T
        gw[k] = ad._weight_adjoint(padded[..., window, :], g)
    return out, gp[..., pad:, :], gw


# generic dispatch, for gradient checks that sweep all op kinds
OP_BUILDERS = {
    "add": lambda ins, at: ad.add(ins[0], ins[1]),
    "subtract": lambda ins, at: ad.subtract(ins[0], ins[1]),
    "scalar_multiply": lambda ins, at: ad.scalar_multiply(ins[0], at["scalar"]),
    "multiply": lambda ins, at: ad.multiply(ins[0], ins[1]),
    "matmul": lambda ins, at: ad.matmul(ins[0], ins[1]),
    "concat_time": lambda ins, at: ad.concat_time(ins),
    "slice": lambda ins, at: ad.slice_axis(ins[0], at["start"], at["stop"], at.get("axis", 0)),
    "relu": lambda ins, at: ad.relu(ins[0]),
    "tanh": lambda ins, at: ad.tanh(ins[0]),
    "sigmoid": lambda ins, at: ad.sigmoid(ins[0]),
    "causal_conv1d": lambda ins, at: ad.causal_conv1d(ins[0], ins[1], at.get("dilation", 1)),
    "gru_layer": lambda ins, at: ad.gru_layer(ins[0], ins[1], ins[2]),
    "sum_reduce": lambda ins, at: ad.sum_reduce(ins[0]),
    "l2_norm": lambda ins, at: ad.l2_norm(ins[0], at.get("axis", -1)),
    "absolute": lambda ins, at: ad.absolute(ins[0]),
}


def forward_op(kind, inputs, attrs=None):
    """Build the node for `kind`; raises on unknown kinds or bad shapes."""
    try:
        builder = OP_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown op kind: {kind!r}") from None
    return builder(list(inputs), attrs or {})


def gru_graph_oracle(config, x, pt):
    """A GruRegressor forward built per frame from primitive ops.

    `config` is a GruConfig, `x` the input tensor (T, D) and `pt` the
    parameter tensors; returns the head output (T, D).
    """
    frames = x.value.shape[0]
    h_seq = x
    for i, hidden in enumerate(config.layer_sizes()):
        xp = ad.add(ad.matmul(h_seq, pt[f"gru{i}_w"]), pt[f"gru{i}_bi"])
        ones = ad.Tensor(np.ones((1, hidden)))
        h = ad.Tensor(np.zeros((1, hidden)))
        outs = []
        for t in range(frames):
            xp_t = ad.slice_axis(xp, t, t + 1, axis=0)
            hu = ad.add(ad.matmul(h, pt[f"gru{i}_u"]), pt[f"gru{i}_bh"])
            zr = ad.sigmoid(ad.add(ad.slice_axis(xp_t, 0, 2 * hidden, axis=1),
                                   ad.slice_axis(hu, 0, 2 * hidden, axis=1)))
            z = ad.slice_axis(zr, 0, hidden, axis=1)
            r = ad.slice_axis(zr, hidden, 2 * hidden, axis=1)
            n = ad.tanh(ad.add(
                ad.slice_axis(xp_t, 2 * hidden, 3 * hidden, axis=1),
                ad.multiply(r, ad.slice_axis(hu, 2 * hidden, 3 * hidden, axis=1))))
            h = ad.add(ad.multiply(ad.subtract(ones, z), n), ad.multiply(z, h))
            outs.append(h)
        h_seq = ad.concat_time(outs)
    return ad.add(ad.matmul(h_seq, pt["head_w"]), pt["head_b"])


def train_per_pair_oracle(model, pairs, cfg):
    """models.train on (input, target) sequence pairs, one graph per pair.

    Returns the loss history; the model's parameters are updated in place
    as train() updates them.
    """
    flat_pairs = [(x.flat(), y.flat()) for x, y in pairs]
    history = []
    state = None
    for _ in range(cfg.epochs):
        pt = model.param_tensors(trainable=True)
        epoch_loss = 0.0
        for x, y in flat_pairs:
            out = model.build_graph(ad.Tensor(x), pt)
            diff = ad.subtract(out, ad.Tensor(y))
            loss = ad.scalar_multiply(ad.sum_reduce(ad.multiply(diff, diff)),
                                      1.0 / y.size)
            epoch_loss += float(loss.value)
            ad.backward(loss)
        epoch_loss /= len(flat_pairs)
        assert math.isfinite(epoch_loss)
        history.append(epoch_loss)
        grads = {k: t.grad / len(flat_pairs) for k, t in pt.items()}
        model.params, state = adam_update(model.params, grads, state, lr=cfg.lr)
    return history


def run_attack_every_step(model, x, cfg, on_step=None):
    """attack.run_attack as it was before it stopped at repeated iterates.

    Evaluates all cfg.steps + 1 iterates, whatever the update rule.
    """
    x_nat = attack._as_flat(x)
    if cfg.target is None:
        raise attack.AttackError("attack config needs a target sequence")
    target = attack._as_flat(cfg.target)
    if target.shape != x_nat.shape:
        raise attack.AttackError(
            f"target shape {target.shape} does not match input {x_nat.shape}")

    x_adv = x_nat.copy()
    box = attack._projection_box(cfg, x_nat.shape[1])
    adam_state = None
    loss_trace = []
    dist_trace = []
    best_x = x_adv
    best_dist = math.inf
    best_step = 0
    # a diverging attack ends in AttackDivergedError, not in numpy warnings
    with np.errstate(all="ignore"):
        for m in range(cfg.steps + 1):
            xt = ad.Tensor(x_adv, requires_grad=True, op="input")
            loss, output = attack.adv_loss(model, xt, target, cfg)
            loss_value = float(loss.value)
            if not math.isfinite(loss_value):
                raise attack.AttackDivergedError(m)
            dist = attack.distance_sum(output.value, target)
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
            x_adv, adam_state = attack.pgd_step(x_nat, x_adv, grad, cfg, adam_state, _box=box)
            if on_step is not None:
                on_step(m, x_adv.copy())

    success = best_dist < cfg.kappa
    return attack.AttackResult(
        adversarial=SkeletonSequence.from_flat(best_x),
        loss_trace=loss_trace,
        distance_trace=dist_trace,
        distance_sum=best_dist,
        success=success,
        max_perturbation=float(np.max(np.abs(best_x - x_nat))),
        best_step=best_step,
        config=cfg,
    )


def assert_attack_matches_every_step(model, x, cfg):
    """run_attack equals run_attack_every_step bit for bit, with and without on_step.

    Compares every AttackResult field (floats by repr, so -0.0 counts) and
    each on_step call's step, array type, shape, writability and bytes.
    """
    def run(attack_fn, watch):
        stream = []

        def on_step(step, x_adv):
            stream.append((step, x_adv.dtype.str, x_adv.shape, x_adv.flags.writeable,
                           x_adv.tobytes()))

        result = attack_fn(model, x, cfg, on_step=on_step if watch else None)
        fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        assert fields.pop("config") is cfg
        fields["adversarial"] = fields["adversarial"].joints.tobytes()
        return repr(fields), stream

    want = run(run_attack_every_step, True)
    assert run(attack.run_attack, True) == want
    assert run(attack.run_attack, False) == (want[0], [])


def first_repeat(model, x, cfg):
    """(m, period) of the first iterate x_m that repeats an earlier one bit for bit, or None.

    Read from every iterate of run_attack_every_step, with no window.
    """
    iterates = [attack._as_flat(x).tobytes()]
    run_attack_every_step(model, x, cfg, on_step=lambda _, x_adv: iterates.append(x_adv.tobytes()))
    first = {}
    for m, key in enumerate(iterates):
        if key in first:
            return m, m - first[key]
        first[key] = m
    return None

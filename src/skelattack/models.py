"""Causal sequence-to-sequence regressors and their training loop.

Two architectures are provided.  The convolutional one stacks dilated
causal convolutions with residual connections; the recurrent one stacks
gated recurrent layers with a per-timestep linear head.  Both map an
input sequence (T, 3N) to an output sequence of the same shape, and both
are causal: output frame t depends only on input frames 1..t.  A batch
of B equal-length inputs (B, T, 3N) maps to (B, T, 3N), each row as it
would alone.

A trained model is immutable as far as prediction is concerned, so
predict() may be called concurrently; train() mutates the model and is
single-threaded per model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .data import DatasetSplit, SkeletonSequence, array_from_json, read_json, write_json
from .optim import adam_update

CHECKPOINT_FORMAT = "skelattack-model"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


class CheckpointError(ModelError):
    pass


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")


@dataclass
class TcnConfig:
    in_dim: int
    hidden_layers: int = 10
    channels: int = 256
    kernel_width: int = 3
    dilations: list[int] | None = None  # default: doubling per layer

    def __post_init__(self):
        for name in ("in_dim", "hidden_layers", "channels", "kernel_width"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dilations is None:
            self.dilations = [2 ** i for i in range(self.hidden_layers)]
        if len(self.dilations) != self.hidden_layers:
            raise ModelError("dilation schedule length must equal hidden_layers")
        if any(d < 1 for d in self.dilations):
            raise ModelError("dilations must be strictly positive")


@dataclass
class GruConfig:
    in_dim: int
    stack: list[tuple[int, int]] = field(
        default_factory=lambda: [(2, 512), (2, 256), (1, 128)])

    def __post_init__(self):
        if self.in_dim < 1:
            raise ModelError(f"in_dim must be >= 1, got {self.in_dim}")
        self.stack = [tuple(int(v) for v in entry) for entry in self.stack]
        if not self.stack:
            raise ModelError("recurrent stack must be non-empty")
        if any(n < 1 or h < 1 for n, h in self.stack):
            raise ModelError("stack entries must be positive (num_layers, hidden)")

    def layer_sizes(self) -> list[int]:
        sizes: list[int] = []
        for num_layers, hidden in self.stack:
            sizes.extend([hidden] * num_layers)
        return sizes


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.001

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.epochs >= 1:
            raise ModelError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ModelError(f"learning rate must be positive and finite, got {self.lr}")


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = math.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class SequenceRegressor:
    """Shared plumbing: parameter tensors, prediction, causal forward."""

    def __init__(self, config, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = self._init_params(config, seed) if params is None else params

    @staticmethod
    def param_specs(cfg) -> dict[str, tuple[tuple[int, ...], int]]:
        """Name -> (shape, fan-in) of every parameter; fan-in 0 means zeros."""
        raise NotImplementedError

    @classmethod
    def _init_params(cls, cfg, seed: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {name: _uniform_init(rng, shape, fan_in) if fan_in else np.zeros(shape)
                for name, (shape, fan_in) in cls.param_specs(cfg).items()}

    @property
    def in_dim(self) -> int:
        return self.config.in_dim

    def build_graph(self, x: ad.Tensor, pt: dict[str, ad.Tensor]) -> ad.Tensor:
        raise NotImplementedError

    def param_tensors(self, trainable: bool) -> dict[str, ad.Tensor]:
        return {k: ad.Tensor(v, requires_grad=trainable) for k, v in self.params.items()}

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        if x.value.ndim not in (2, 3) or x.value.shape[-1] != self.in_dim:
            raise ModelError(
                f"input must be (T, {self.in_dim}) or (B, T, {self.in_dim}), "
                f"got {x.value.shape}")
        return self.build_graph(x, self.param_tensors(trainable=False))

    def predict_flat(self, x: np.ndarray) -> np.ndarray:
        # an overflowing forward ends in ModelError, not in numpy warnings
        with np.errstate(all="ignore"):
            out = self.forward(ad.Tensor(x))
        if not np.isfinite(out.value).all():
            raise ModelError("the model's output is not finite")
        return out.value

    def predict(self, seq: SkeletonSequence) -> SkeletonSequence:
        return SkeletonSequence.from_flat(self.predict_flat(seq.flat()))


class TcnRegressor(SequenceRegressor):
    arch = "tcn"

    @staticmethod
    def param_specs(cfg: TcnConfig) -> dict[str, tuple[tuple[int, ...], int]]:
        specs = {}
        c_in = cfg.in_dim
        for i in range(cfg.hidden_layers):
            k = cfg.kernel_width
            specs[f"conv{i}_w"] = ((k, c_in, cfg.channels), k * c_in)
            specs[f"conv{i}_b"] = ((cfg.channels,), 0)
            if c_in != cfg.channels:
                specs[f"proj{i}_w"] = ((c_in, cfg.channels), c_in)
            c_in = cfg.channels
        specs["head_w"] = ((cfg.channels, cfg.in_dim), cfg.channels)
        specs["head_b"] = ((cfg.in_dim,), 0)
        return specs

    def build_graph(self, x: ad.Tensor, pt: dict[str, ad.Tensor]) -> ad.Tensor:
        cfg = self.config
        h = x
        c_in = cfg.in_dim
        for i, dilation in enumerate(cfg.dilations):
            pre = ad.add(ad.causal_conv1d(h, pt[f"conv{i}_w"], dilation=dilation),
                         pt[f"conv{i}_b"])
            res = h if c_in == cfg.channels else ad.matmul(h, pt[f"proj{i}_w"])
            h = ad.relu(ad.add(pre, res))
            c_in = cfg.channels
        return ad.add(ad.matmul(h, pt["head_w"]), pt["head_b"])


class GruRegressor(SequenceRegressor):
    arch = "gru"

    @staticmethod
    def param_specs(cfg: GruConfig) -> dict[str, tuple[tuple[int, ...], int]]:
        specs = {}
        c_in = cfg.in_dim
        for i, hidden in enumerate(cfg.layer_sizes()):
            specs[f"gru{i}_w"] = ((c_in, 3 * hidden), c_in)
            specs[f"gru{i}_u"] = ((hidden, 3 * hidden), hidden)
            specs[f"gru{i}_bi"] = ((3 * hidden,), 0)
            specs[f"gru{i}_bh"] = ((3 * hidden,), 0)
            c_in = hidden
        specs["head_w"] = ((c_in, cfg.in_dim), c_in)
        specs["head_b"] = ((cfg.in_dim,), 0)
        return specs

    def build_graph(self, x: ad.Tensor, pt: dict[str, ad.Tensor]) -> ad.Tensor:
        h_seq = x
        for i in range(len(self.config.layer_sizes())):
            xp = ad.add(ad.matmul(h_seq, pt[f"gru{i}_w"]), pt[f"gru{i}_bi"])
            h_seq = ad.gru_layer(xp, pt[f"gru{i}_u"], pt[f"gru{i}_bh"])
        return ad.add(ad.matmul(h_seq, pt["head_w"]), pt["head_b"])


# config-field overrides by preset; "full" is the configs' defaults, the paper's sizes
TCN_PRESETS = {
    "tiny": dict(hidden_layers=3, channels=32, kernel_width=3),
    "full": {},
}

GRU_PRESETS = {
    "tiny": dict(stack=[(1, 32)]),
    "full": {},
}

ARCHITECTURES = {"tcn": (TcnRegressor, TcnConfig, TCN_PRESETS),
                 "gru": (GruRegressor, GruConfig, GRU_PRESETS)}


def create_model(arch: str, in_dim: int, preset: str = "tiny", seed: int = 0,
                 **overrides) -> SequenceRegressor:
    if arch not in ARCHITECTURES:
        raise ModelError(f"unknown architecture {arch!r}")
    cls, config_cls, presets = ARCHITECTURES[arch]
    if preset not in presets:
        raise ModelError(f"unknown {arch} preset {preset!r}; choose from {sorted(presets)}")
    unknown = set(overrides) - {f.name for f in fields(config_cls)}
    if unknown:
        raise ModelError(f"unknown overrides for {arch}: {sorted(unknown)}")
    return cls(config_cls(in_dim=in_dim, **{**presets[preset], **overrides}), seed=seed)


# ---------------------------------------------------------------------------
# training


def _group_backward(model: SequenceRegressor, pt: dict[str, ad.Tensor],
                    xs: np.ndarray, ys: np.ndarray) -> list[float]:
    """Backpropagate a stack of equal-length pairs into `pt`; return each pair's loss.

    The graph is local, so it is freed before the next group's is built.
    """
    out = model.build_graph(ad.Tensor(xs), pt)
    diff = ad.subtract(out, ad.Tensor(ys))
    sq = ad.multiply(diff, diff)
    # every pair of a group has ys[0].size values, so the root's
    # adjoint reaches each sample as its own pair's loss would
    scale = 1.0 / ys[0].size
    losses = [float(np.sum(rows) * scale) for rows in sq.value]
    ad.backward(ad.scalar_multiply(ad.sum_reduce(sq), scale))
    return losses


def train(model: SequenceRegressor,
          split,
          cfg: TrainConfig) -> tuple[SequenceRegressor, list[float]]:
    """Full-batch Adam on per-frame mean squared error.

    Accepts a DatasetSplit (its train partition is used) or a plain list
    of (input, target) sequence pairs.  Gradients are averaged over all
    pairs each epoch and applied with one optimizer step, so the loss
    history is reproducible bit-for-bit.  Pairs of equal length are
    stacked into one (B, T, C) graph per epoch; every sample's arithmetic
    is the one it would get alone, the gradients of a group add up in
    pair order and the epoch loss is summed per pair in pair order.
    """
    pairs = split.train if isinstance(split, DatasetSplit) else split
    if not pairs:
        raise ModelError("training requires at least one pair")
    flat_pairs = [(x.flat(), y.flat()) for x, y in pairs]
    for x, y in flat_pairs:
        if x.shape != y.shape:
            raise ModelError(f"input/target shapes differ: {x.shape} vs {y.shape}")
        if x.shape[1] != model.in_dim:
            raise ModelError(
                f"pair dimension {x.shape[1]} does not match model ({model.in_dim})")
    by_length: dict[int, list[int]] = {}
    for i, (x, _) in enumerate(flat_pairs):
        by_length.setdefault(x.shape[0], []).append(i)
    groups = [(members, np.stack([flat_pairs[i][0] for i in members]),
               np.stack([flat_pairs[i][1] for i in members]))
              for members in by_length.values()]
    history: list[float] = []
    state = None
    # a diverging run ends in TrainingDivergedError, not in numpy warnings
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            pt = model.param_tensors(trainable=True)
            pair_loss = [0.0] * len(flat_pairs)
            for members, xs, ys in groups:
                for i, loss in zip(members, _group_backward(model, pt, xs, ys)):
                    pair_loss[i] = loss
            epoch_loss = 0.0
            for loss in pair_loss:  # in pair order; sum() compensates on Python >= 3.12
                epoch_loss += loss
            epoch_loss /= len(flat_pairs)
            if not math.isfinite(epoch_loss):
                raise TrainingDivergedError(epoch, epoch_loss)
            history.append(epoch_loss)
            grads = {k: t.grad / len(flat_pairs) for k, t in pt.items()}
            model.params, state = adam_update(model.params, grads, state, lr=cfg.lr)
    return model, history


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: SequenceRegressor, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel()}
            for name, arr in model.params.items()
        },
    }
    write_json(path, payload)


def load_model(path) -> SequenceRegressor:
    return read_json(path, CheckpointError(f"corrupted checkpoint {path}"), _model_from_json)


def _model_from_json(payload: dict) -> SequenceRegressor:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')}")
    arch = payload.get("arch")
    if arch not in ARCHITECTURES:
        raise CheckpointError(f"unknown architecture {arch!r}")
    cls, config_cls, _ = ARCHITECTURES[arch]
    # every layer has parameters: refuse more layers than entries before building them
    settings, entries = payload["config"], len(payload["params"])
    layers = (settings.get("hidden_layers", TcnConfig.hidden_layers) if arch == "tcn"
              else sum(int(entry[0]) for entry in settings.get("stack", ())))
    if layers > entries:
        raise CheckpointError(f"checkpoint config names {layers} layers, more than its "
                              f"{entries} parameter entries")
    config = config_cls(**settings)
    params = {name: array_from_json(entry["data"]).reshape(entry["shape"])
              for name, entry in payload["params"].items()}
    expected = {name: shape for name, (shape, _) in cls.param_specs(config).items()}
    found = {name: arr.shape for name, arr in params.items()}
    if found != expected:
        name = min(n for n in expected.keys() | found.keys()
                   if found.get(n) != expected.get(n))
        raise CheckpointError(
            f"checkpoint parameter {name}: shape {found.get(name)} in the file, "
            f"{expected.get(name)} for its {arch} config")
    return cls(config, params=params)

"""Regressor contracts: shapes, causality, training, checkpoints."""

import json
import warnings

import numpy as np
import pytest

from skelattack import autodiff as ad
from skelattack import data, models

from tests.helpers import (corrupt_checkpoint, fd_gradients, gru_graph_oracle, max_rel_err,
                           mse, train_per_pair_oracle, zero_kernel_width)


@pytest.fixture(scope="module")
def tiny_records():
    return data.synth_generate(seed=21, n_per_category=1, frames=10, joints=4)


@pytest.fixture(scope="module")
def one_pair(tiny_records):
    record = tiny_records[0]
    return record.actor, record.reactor


def small_model(arch, in_dim, seed=0):
    if arch == "tcn":
        return models.create_model("tcn", in_dim, seed=seed,
                                   hidden_layers=2, channels=16)
    return models.create_model("gru", in_dim, seed=seed, stack=[(1, 16)])


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_output_shape_matches_input(arch, one_pair):
    seq = one_pair[0]
    model = small_model(arch, seq.flat().shape[1])
    out = model.predict(seq)
    assert out.joints.shape == seq.joints.shape


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_zero_head_gives_zero_output(arch, one_pair):
    seq = one_pair[0]
    model = small_model(arch, seq.flat().shape[1])
    model.params["head_w"] = np.zeros_like(model.params["head_w"])
    model.params["head_b"] = np.zeros_like(model.params["head_b"])
    assert np.all(model.predict(seq).joints == 0.0)


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_dimension_mismatch_rejected(arch):
    model = small_model(arch, 12)
    with pytest.raises(models.ModelError, match="input"):
        model.predict_flat(np.zeros((5, 9)))


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_causality_future_perturbation(arch, one_pair):
    # changing frames after t must leave outputs up to t bitwise unchanged
    seq = one_pair[0]
    flat = seq.flat()
    model = small_model(arch, flat.shape[1], seed=3)
    base = model.predict_flat(flat)
    rng = np.random.default_rng(0)
    for t in range(flat.shape[0] - 1):
        bumped = flat.copy()
        bumped[t + 1:] += rng.normal(size=bumped[t + 1:].shape)
        out = model.predict_flat(bumped)
        assert np.array_equal(out[:t + 1], base[:t + 1])


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_causality_prefix_truncation(arch, one_pair):
    seq = one_pair[0]
    flat = seq.flat()
    model = small_model(arch, flat.shape[1], seed=3)
    base = model.predict_flat(flat)
    for t in (1, 3, 7):
        out = model.predict_flat(flat[:t])
        assert np.array_equal(out, base[:t])


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_parameter_gradients_match_finite_differences(arch):
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, size=(4, 6))
    y = rng.uniform(0.1, 0.9, size=(4, 6))
    model = small_model(arch, 6, seed=5) if arch == "tcn" else \
        models.create_model("gru", 6, seed=5, stack=[(1, 8)])
    names = sorted(model.params)

    def loss_value(arrays):
        for name, arr in zip(names, arrays):
            model.params[name] = arr
        return mse(model.predict_flat(x), y)

    pt = model.param_tensors(trainable=True)
    out = model.build_graph(ad.Tensor(x), pt)
    diff = ad.subtract(out, ad.Tensor(y))
    loss = ad.scalar_multiply(ad.sum_reduce(ad.multiply(diff, diff)), 1.0 / y.size)
    ad.backward(loss)
    numeric = fd_gradients(loss_value, [model.params[n].copy() for n in names])
    for name, num in zip(names, numeric):
        assert max_rel_err(pt[name].grad, num) < 1e-4, name


@pytest.mark.parametrize("stack", [[(1, 16)], [(1, 7), (1, 5)]])
def test_fused_gru_matches_primitive_op_graph(stack, one_pair):
    # the fused recurrent op against the per-frame graph of primitive ops
    x = one_pair[0].flat()
    y = one_pair[1].flat()
    model = models.create_model("gru", x.shape[1], seed=12, stack=stack)
    rng = np.random.default_rng(12)
    for name in model.params:
        model.params[name] = model.params[name] + 0.2 * rng.normal(
            size=model.params[name].shape)
    pt_oracle = model.param_tensors(trainable=False)
    assert np.array_equal(model.predict_flat(x),
                          gru_graph_oracle(model.config, ad.Tensor(x), pt_oracle).value)

    grads = []
    for build in (model.build_graph, lambda xt, pt: gru_graph_oracle(model.config, xt, pt)):
        xt = ad.Tensor(x, requires_grad=True)
        pt = model.param_tensors(trainable=True)
        diff = ad.subtract(build(xt, pt), ad.Tensor(y))
        ad.backward(ad.sum_reduce(ad.multiply(diff, diff)))
        grads.append([xt.grad] + [pt[name].grad for name in sorted(pt)])
    for fused, oracle in zip(*grads):
        assert np.allclose(fused, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("arch", ["tcn", "gru2"])
def test_batched_forward_rows_equal_unbatched(arch, tiny_records):
    # each row of a (B, T, C) forward is bitwise that sequence's own forward
    seqs = [r.actor.flat() for r in tiny_records[:3]] + [tiny_records[0].reactor.flat()]
    model = small_model("tcn", seqs[0].shape[1], seed=4) if arch == "tcn" else \
        models.create_model("gru", seqs[0].shape[1], seed=4, stack=[(2, 8)])
    batched = model.predict_flat(np.stack(seqs))
    assert batched.shape == (len(seqs),) + seqs[0].shape
    for row, seq in zip(batched, seqs):
        assert np.array_equal(row, model.predict_flat(seq))


def trainable_pair_models(arch, in_dim):
    """Two identical fresh models of `arch` (tcn, or a 2-layer gru)."""
    def make():
        if arch == "tcn":
            return small_model("tcn", in_dim, seed=13)
        return models.create_model("gru", in_dim, seed=13, stack=[(1, 8), (1, 6)])
    return make(), make()


@pytest.mark.parametrize("arch", ["tcn", "gru2"])
def test_batched_training_bit_identical_to_per_pair_loop(arch, tiny_records):
    pairs = data.split_by_sets(tiny_records, {"s03s04"}).train
    batched, oracle = trainable_pair_models(arch, pairs[0][0].flat().shape[1])
    cfg = models.TrainConfig(epochs=4, lr=0.01)
    _, history = models.train(batched, pairs, cfg)
    assert history == train_per_pair_oracle(oracle, pairs, cfg)
    for name in oracle.params:
        assert np.array_equal(batched.params[name], oracle.params[name]), name


@pytest.mark.parametrize("arch", ["tcn", "gru2"])
def test_batched_training_mixed_lengths_matches_per_pair_loop(arch, tiny_records):
    # pairs of three lengths, interleaved, so the groups are not contiguous
    pairs = []
    for i, record in enumerate(tiny_records[:6]):
        frames = (10, 7, 4)[i % 3]
        pairs.append((data.SkeletonSequence(record.actor.joints[:frames]),
                      data.SkeletonSequence(record.reactor.joints[:frames])))
    batched, oracle = trainable_pair_models(arch, pairs[0][0].flat().shape[1])
    cfg = models.TrainConfig(epochs=3, lr=0.01)
    _, history = models.train(batched, pairs, cfg)
    assert np.allclose(history, train_per_pair_oracle(oracle, pairs, cfg),
                       rtol=1e-12, atol=0.0)
    for name in oracle.params:
        assert np.allclose(batched.params[name], oracle.params[name],
                           rtol=1e-12, atol=0.0), name


def test_train_overfits_single_pair(one_pair):
    model = models.create_model("tcn", one_pair[0].flat().shape[1], seed=2,
                                hidden_layers=2, channels=24)
    model, history = models.train(model, [one_pair],
                                  models.TrainConfig(epochs=500, lr=0.001))
    assert history[-1] / history[0] < 1e-3
    pred = model.predict(one_pair[0])
    assert mse(pred.flat(), one_pair[1].flat()) == pytest.approx(history[-1], rel=0.5)


def test_train_rejects_zero_epochs():
    with pytest.raises(models.ModelError, match="epochs"):
        models.TrainConfig(epochs=0)


def test_train_requires_pairs():
    model = small_model("tcn", 6)
    with pytest.raises(models.ModelError, match="pair"):
        models.train(model, [], models.TrainConfig(epochs=1))


def test_train_loss_history_reproducible(one_pair):
    histories = []
    for _ in range(2):
        model = small_model("gru", one_pair[0].flat().shape[1], seed=9)
        _, history = models.train(model, [one_pair],
                                  models.TrainConfig(epochs=12, lr=0.001))
        histories.append(history)
    assert histories[0] == histories[1]


def test_train_diverged_raises(one_pair):
    model = small_model("tcn", one_pair[0].flat().shape[1], seed=1)
    with pytest.raises(models.TrainingDivergedError) as exc:
        models.train(model, [one_pair],
                     models.TrainConfig(epochs=5, lr=1e160))
    assert exc.value.epoch >= 1


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_train_divergence_is_raised_not_warned(arch, one_pair):
    model = small_model(arch, one_pair[0].flat().shape[1], seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(models.TrainingDivergedError):
            models.train(model, [one_pair], models.TrainConfig(epochs=5, lr=1e160))


def test_train_accepts_split(tiny_records):
    split = data.split_by_sets(tiny_records, {"s03s04"})
    model = small_model("tcn", split.train[0][0].flat().shape[1])
    _, history = models.train(model, split, models.TrainConfig(epochs=2))
    assert len(history) == 2


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_checkpoint_round_trip(arch, one_pair, tmp_path):
    seq = one_pair[0]
    model = small_model(arch, seq.flat().shape[1], seed=4)
    path = tmp_path / "model.json"
    models.save_model(model, path)
    loaded = models.load_model(path)
    assert loaded.arch == model.arch
    assert np.array_equal(loaded.predict_flat(seq.flat()), model.predict_flat(seq.flat()))


def test_checkpoint_corrupted_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(models.CheckpointError, match="corrupted"):
        models.load_model(path)
    path.write_text(json.dumps({"something": "else"}), encoding="utf-8")
    with pytest.raises(models.CheckpointError, match="not a model"):
        models.load_model(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = small_model("tcn", 6)
    path = tmp_path / "tcn.json"
    models.save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(models.CheckpointError, match="version"):
        models.load_model(path)


@pytest.mark.parametrize("arch,name,shape", [("tcn", "head_b", None),
                                             ("gru", "gru0_u", (8, 24)),
                                             ("gru", "gru1_w", (16, 48))])
def test_checkpoint_parameters_checked_against_config(arch, name, shape, tmp_path):
    path = tmp_path / "model.json"
    models.save_model(small_model(arch, 6), path)
    corrupt_checkpoint(path, name, shape)
    with pytest.raises(models.CheckpointError, match=name):
        models.load_model(path)


@pytest.mark.parametrize("arch,config", [("tcn", {"hidden_layers": 20_000, "dilations": None}),
                                         ("gru", {"stack": [[20_000, 4]]})])
def test_checkpoint_naming_more_layers_than_parameters_refused_first(arch, config, tmp_path):
    path = tmp_path / "model.json"
    models.save_model(small_model(arch, 6), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"].update(config)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(models.CheckpointError, match="names 20000 layers, more than its"):
        models.load_model(path)


def test_config_validation():
    with pytest.raises(models.ModelError):
        models.TcnConfig(in_dim=6, hidden_layers=0)
    with pytest.raises(models.ModelError):
        models.TcnConfig(in_dim=6, hidden_layers=2, dilations=[1])
    with pytest.raises(models.ModelError):
        models.TcnConfig(in_dim=6, hidden_layers=2, dilations=[1, 0])
    with pytest.raises(models.ModelError):
        models.GruConfig(in_dim=6, stack=[])
    for name in ("in_dim", "channels", "kernel_width"):
        with pytest.raises(models.ModelError, match=name):
            models.TcnConfig(**{"in_dim": 6, name: 0})
    with pytest.raises(models.ModelError, match="in_dim"):
        models.GruConfig(in_dim=0)
    for arch in ("tcn", "gru"):
        with pytest.raises(models.ModelError, match="preset"):
            models.create_model(arch, 6, preset="huge")
        with pytest.raises(models.ModelError, match=rf"unknown overrides for {arch}: \['width'\]"):
            models.create_model(arch, 6, width=8)
    with pytest.raises(models.ModelError, match="learning rate"):
        models.TrainConfig(lr=float("nan"))
    cfg = models.GruConfig(in_dim=6, stack=[(2, 8), (1, 4)])
    assert cfg.layer_sizes() == [8, 8, 4]


@pytest.mark.parametrize("arch,preset", [(arch, preset)
                                         for arch, (_, _, presets) in models.ARCHITECTURES.items()
                                         for preset in presets])
def test_every_preset_round_trips_through_a_checkpoint(arch, preset, tmp_path):
    model = models.create_model(arch, 45, preset=preset, seed=3)
    path = tmp_path / "model.json"
    models.save_model(model, path)
    loaded = models.load_model(path)
    assert type(loaded) is type(model) and loaded.config == model.config
    assert loaded.params.keys() == model.params.keys()
    assert all(np.array_equal(loaded.params[name], model.params[name]) for name in model.params)


def test_checkpoint_with_zero_kernel_width_refused_at_load(tmp_path):
    # the file is consistent (empty convolution weights), so only the config check refuses it
    path = tmp_path / "model.json"
    models.save_model(small_model("tcn", 6), path)
    zero_kernel_width(path)
    with pytest.raises(models.CheckpointError, match="kernel_width"):
        models.load_model(path)


def test_predict_refuses_non_finite_output_without_warning(one_pair):
    seq = one_pair[0].flat()
    model = small_model("tcn", seq.shape[1], seed=1)
    model.params = {name: p * 1e200 for name, p in model.params.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(models.ModelError, match="not finite"):
            model.predict_flat(seq)


def test_predict_safe_from_many_threads(one_pair):
    # a trained model is read-only for prediction
    from concurrent.futures import ThreadPoolExecutor

    seq = one_pair[0]
    model = small_model("tcn", seq.flat().shape[1], seed=6)
    expected = model.predict_flat(seq.flat())
    with ThreadPoolExecutor(max_workers=4) as pool:
        outputs = list(pool.map(lambda _: model.predict_flat(seq.flat()), range(16)))
    for out in outputs:
        assert np.array_equal(out, expected)


def test_default_configs_mirror_full_scale():
    tcn = models.TcnConfig(in_dim=45)
    assert tcn.hidden_layers == 10 and tcn.channels == 256
    assert tcn.dilations == [2 ** i for i in range(10)]
    gru = models.GruConfig(in_dim=45)
    assert gru.layer_sizes() == [512, 512, 256, 256, 128]
    assert models.TrainConfig().epochs == 1000
    assert models.TrainConfig().lr == 0.001


@pytest.mark.parametrize("arch", ["tcn", "gru"])
def test_full_preset_instantiates_and_predicts(arch):
    model = models.create_model(arch, 45, preset="full", seed=0)
    out = model.predict_flat(np.full((3, 45), 0.4))
    assert out.shape == (3, 45)
    assert np.all(np.isfinite(out))

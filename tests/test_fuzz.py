"""Property tests of the loaders: a file either loads or is refused cleanly.

Each test starts from a small valid file, replaces, deletes or corrupts
one drawn part of it, and checks that the library loader either returns
or raises its own module's error type, and that the command reading the
file prints one error: line, exits with code 2 and leaves no --out.
Examples are derandomized, so every run tries the same files.

Two properties cover the attack instead.  Over drawn models, budgets,
temporal weights, masks and step counts, an attack that stops at a
repeated sign-rule iterate gives the every-step result byte for byte.
Over drawn shapes, budgets, masks, update rules, starts on and past the
domain edges and gradients with zeros, the projected update clipped per
joint gives the bytes and the Adam state of the tiled projection.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skelattack import attack, cli, data, evaluation, models

from tests.helpers import assert_attack_matches_every_step, pgd_step_tiled, serialize_sbu

# capsys is read before and after each example's command, so sharing it is safe
FUZZ = settings(derandomize=True, max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# small integers only: a checkpoint config with a huge layer count builds
# a list that long before its shapes are compared
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)

FRAMES, JOINTS = 3, 2
WIDTH = 3 * JOINTS


def entries(value, at=()):
    """(path, value) of `value` and of everything nested in it."""
    yield at, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from entries(item, at + (key,))


def mutated(draw, payload):
    """A copy of the JSON `payload` with one drawn entry replaced or deleted.

    Half the draws pick among the objects and arrays, so that structure
    is damaged as often as the numbers that make up most entries.
    """
    every = [at for at, _ in entries(payload)]
    nested = [at for at, value in entries(payload) if isinstance(value, (dict, list))]
    at = draw(st.sampled_from(nested) | st.sampled_from(every))
    if not at:
        return draw(JSON_VALUES)
    payload = copy.deepcopy(payload)
    parent = payload
    for key in at[:-1]:
        parent = parent[key]
    if draw(st.integers(0, 5)) == 0:
        del parent[at[-1]]
    else:
        parent[at[-1]] = draw(JSON_VALUES)
    return payload


def file_bytes(draw, payload):
    """The payload's JSON text, sometimes cut short or with a byte that is not UTF-8."""
    raw = json.dumps(mutated(draw, payload)).encode("utf-8")
    damage = draw(st.sampled_from(["none", "none", "cut", "byte"]))
    at = draw(st.integers(0, len(raw)))
    if damage == "cut":
        return raw[:at]
    if damage == "byte":
        return raw[:at] + b"\xff" + raw[at:]
    return raw


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid payloads of each file kind, plus a checkpoint and a sweep on disk."""
    root = tmp_path_factory.mktemp("fuzz")
    records = data.synth_generate(seed=3, n_per_category=1, frames=FRAMES, joints=JOINTS)
    model = models.create_model("tcn", WIDTH, seed=2, hidden_layers=1, channels=4)
    models.save_model(model, root / "model.json")
    seq = np.full((FRAMES, WIDTH), 0.4)
    report = evaluation.SweepReport(
        model_id="tcn", epsilon_grid=[0.45],
        objectives=[evaluation.Objective("kicking", data.SkeletonSequence.from_flat(seq), 1.0)],
        cells=[evaluation.CellResult("kicking", 0.45, 1.0, [1.0], [seq])])
    evaluation.save_sweep(report, root / "sweep.json")

    def read(name):
        return json.loads((root / name).read_text(encoding="utf-8"))

    return {
        "root": root,
        "dataset": {"records": [data.record_to_dict(r) for r in records]},
        "checkpoint": read("model.json"),
        "sweep": read("sweep.json"),
        "result": {"natural": seq.tolist(), "adversarial": seq.tolist(),
                   "target": seq.tolist()},
    }


def check(raw, capsys, argv_for, load=None, error=()):
    """`load` returns or raises `error`, and the command refuses what `load` refused.

    Without `load`, the command is the reader: whatever it refuses, it
    refuses before --out exists.  A refusal is one error: line and exit 2.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(raw)
        refused = False
        if load is not None:
            try:
                load(path)
            except error:
                refused = True
        if argv_for is None:
            return
        out = Path(tmp) / "out"
        capsys.readouterr()
        code = cli.main(argv_for(path) + ["--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        if refused or code != 0:
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines
        if refused or (load is None and code != 0):
            assert not out.exists()


@FUZZ
@given(st.data())
def test_read_dataset_loads_or_raises_data_error(inputs, capsys, source):
    raw = file_bytes(source.draw, inputs["dataset"])
    check(raw, capsys, lambda path: ["train", "--dataset", str(path), "--epochs", "1"],
          data.read_dataset, data.DataError)


@FUZZ
@given(st.data())
def test_load_model_loads_or_raises_checkpoint_error(inputs, capsys, source):
    raw = file_bytes(source.draw, inputs["checkpoint"])
    sweep = str(inputs["root"] / "sweep.json")
    check(raw, capsys, lambda path: ["transfer", "--sweep", sweep, "--model-path", str(path)],
          models.load_model, models.CheckpointError)


@FUZZ
@given(st.data())
def test_load_sweep_loads_or_raises_evaluation_error(inputs, capsys, source):
    raw = file_bytes(source.draw, inputs["sweep"])
    model = str(inputs["root"] / "model.json")
    check(raw, capsys, lambda path: ["transfer", "--sweep", str(path), "--model-path", model],
          evaluation.load_sweep, evaluation.EvaluationError)


@FUZZ
@given(st.data())
def test_export_writes_a_result_or_refuses_it(inputs, capsys, source):
    raw = file_bytes(source.draw, inputs["result"])
    model = str(inputs["root"] / "model.json")
    check(raw, capsys, lambda path: ["export", "--result", str(path), "--model-path", model])


@FUZZ
@given(st.data())
def test_parse_sbu_file_loads_or_raises_data_error(source):
    record = data.InteractionRecord(
        actor=data.SkeletonSequence(np.full((2, data.NUM_JOINTS, 3), 0.5)),
        reactor=data.SkeletonSequence(np.full((2, data.NUM_JOINTS, 3), 0.25)),
        category="kicking", set_id="s01s02")
    raw = serialize_sbu(record).encode("utf-8")
    at = source.draw(st.integers(0, len(raw)))
    cut = source.draw(st.integers(0, 8))
    insert = source.draw(st.binary(max_size=6) | st.text(max_size=6).map(str.encode))
    check(raw[:at] + insert + raw[at + cut:], None, None, data.parse_sbu_file, data.DataError)


LOADERS = [(data.read_dataset, data.DataError), (models.load_model, models.CheckpointError),
           (evaluation.load_sweep, evaluation.EvaluationError),
           (data.parse_sbu_file, data.DataError)]


@pytest.mark.parametrize("raw", [b'{"records": "\xe9t\xe9"}', b"[" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
@pytest.mark.parametrize("load,error", LOADERS,
                         ids=["read_dataset", "load_model", "load_sweep", "parse_sbu_file"])
def test_loader_refuses_a_file_it_cannot_decode(load, error, raw, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    with pytest.raises(error):
        load(path)


ATTACK_RECORDS = data.synth_generate(seed=33, n_per_category=1, frames=8, joints=3)


# up to 80 steps, so that about half the drawn attacks meet a repeated iterate
@FUZZ
@given(seed=st.integers(0, 2 ** 16), arch=st.sampled_from(["tcn", "gru"]),
       epsilon=st.sampled_from(attack.EPSILON_GRID) | st.floats(0.01, 0.6),
       lam=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0),
       mask=st.sampled_from(["depth", "all"]), steps=st.integers(1, 80))
def test_run_attack_equals_every_step_attack(seed, arch, epsilon, lam, mask, steps):
    width = ATTACK_RECORDS[0].actor.flat().shape[1]
    model = (models.create_model("tcn", width, seed=seed, hidden_layers=2, channels=8)
             if arch == "tcn" else models.create_model("gru", width, seed=seed, stack=[(1, 8)]))
    cfg = attack.AttackConfig(target=ATTACK_RECORDS[seed % 8].reactor, kappa=1.0,
                              epsilon=epsilon, lam=lam, mask=mask, steps=steps)
    assert_attack_matches_every_step(model, ATTACK_RECORDS[seed % 7].actor, cfg)


def adam_bytes(state):
    return None if state is None else (state.step, state.m["x"].tobytes(),
                                       state.v["x"].tobytes())


# a coordinate of the natural start lies inside the domain, on an edge or past
# one by less than epsilon, so the clip and the ulp nudge both get work
@FUZZ
@given(seed=st.integers(0, 2 ** 16), frames=st.integers(1, 40), joints=st.integers(1, 15),
       mask=st.sampled_from(["depth", "all"]), rule=st.sampled_from(["pgd", "adam"]),
       epsilon=st.floats(1e-3, 0.45))
def test_pgd_step_equals_tiled_projection(seed, frames, joints, mask, rule, epsilon):
    rng = np.random.default_rng(seed)
    lo = np.array([data.X_RANGE[0], data.Y_RANGE[0], data.DEPTH_RANGE[0]])
    hi = np.array([data.X_RANGE[1], data.Y_RANGE[1], data.DEPTH_RANGE[1]])
    shape = (frames, joints, 3)
    past = rng.uniform(0.0, epsilon, shape)
    where = rng.integers(0, 5, shape)
    x_nat = np.select([where == 1, where == 2, where == 3, where == 4],
                      [lo, hi, lo - past, hi + past],
                      rng.uniform(lo, hi, shape)).reshape(frames, 3 * joints)
    cfg = attack.AttackConfig(epsilon=epsilon, mask=mask, update_rule=rule)
    got = want = x_nat + rng.uniform(-2 * epsilon, 2 * epsilon, x_nat.shape)
    got_state = want_state = None
    for _ in range(3):
        grad = rng.normal(size=x_nat.shape) * (rng.random(x_nat.shape) < 0.7)
        got, got_state = attack.pgd_step(x_nat, got, grad, cfg, got_state)
        want, want_state = pgd_step_tiled(x_nat, want, grad, cfg, want_state)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        assert adam_bytes(got_state) == adam_bytes(want_state)

"""Tolerance table, sweeps, transfer consistency, and report exports."""

import json
import math

import numpy as np
import pytest

from skelattack import attack, data, evaluation, models

from tests.helpers import brute_distance_sum


def tiny_model(in_dim, seed=0):
    return models.create_model("tcn", in_dim, seed=seed, hidden_layers=2, channels=8)


# tolerance table -------------------------------------------------------------

def test_default_tolerances():
    table = evaluation.DEFAULT_TOLERANCES
    assert table["handshaking"] == 79.52
    assert table["punching"] == 52.04
    assert table["kicking"] == 93.17
    assert table["departing"] == 71.77
    assert table["pushing"] == 22.77


def test_resolve_kappa_exact_entry():
    assert evaluation.resolve_kappa(evaluation.DEFAULT_TOLERANCES, "punching") == 52.04


def test_resolve_kappa_missing_label_uses_mean():
    # mean of the five surveyed tolerances
    expected = (79.52 + 52.04 + 93.17 + 71.77 + 22.77) / 5
    assert expected == pytest.approx(63.854)
    assert evaluation.resolve_kappa(evaluation.DEFAULT_TOLERANCES, "hugging") \
        == pytest.approx(expected)


def test_resolve_kappa_single_entry_table():
    assert evaluation.resolve_kappa({"pushing": 22.77}, "kicking") == 22.77


def test_resolve_kappa_empty_table():
    with pytest.raises(evaluation.EvaluationError, match="empty"):
        evaluation.resolve_kappa({}, "kicking")


# distance sum ----------------------------------------------------------------

def test_distance_sum_matches_bruteforce():
    rng = np.random.default_rng(2)
    out = rng.normal(size=(7, 9))
    tgt = rng.normal(size=(7, 9))
    assert attack.distance_sum(out, tgt) == pytest.approx(
        brute_distance_sum(out, tgt), rel=1e-12)
    for shape in [(5, 7, 9), (3, 40, 45), (2, 300, 45)]:
        outs, tgts = rng.normal(size=shape), rng.normal(size=shape)
        assert attack.distance_sum(outs, tgts) == [attack.distance_sum(o, t)
                                                   for o, t in zip(outs, tgts)]


# objectives ------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench():
    records = data.synth_generate(seed=13, n_per_category=2, frames=8, joints=3)
    held = {"s03s04", "s05s02"}
    split = data.split_by_sets(records, held)
    inputs = [r.actor for r in data.held_out_records(records, held)]
    in_dim = inputs[0].flat().shape[1]
    model = tiny_model(in_dim, seed=1)
    model, _ = models.train(model, split, models.TrainConfig(epochs=60, lr=0.002))
    return records, held, inputs, model


def test_make_objectives_prefers_held_out(bench):
    records, held, _, _ = bench
    objectives = evaluation.make_objectives(records, list(data.CATEGORIES),
                                            evaluation.DEFAULT_TOLERANCES,
                                            seed=5, prefer_ids=held)
    held_cats = {r.category for r in records if r.set_id in held}
    by_label = {o.label: o for o in objectives}
    assert set(by_label) == set(data.CATEGORIES)
    for label, objective in by_label.items():
        assert objective.kappa == evaluation.resolve_kappa(
            evaluation.DEFAULT_TOLERANCES, label)
        if label in held_cats:
            sources = [r for r in records if r.set_id in held and r.category == label]
            assert any(np.array_equal(objective.target.joints, r.reactor.joints)
                       for r in sources)


def test_make_objectives_unknown_category(bench):
    records = bench[0]
    with pytest.raises(evaluation.EvaluationError, match="no records"):
        evaluation.make_objectives(records, ["flying"], {"flying": 1.0})


def test_fit_target_length():
    seq = data.SkeletonSequence(np.arange(24.0).reshape(4, 2, 3))
    shorter = evaluation.fit_target_length(seq, 2)
    assert shorter.num_frames == 2
    assert np.array_equal(shorter.joints, seq.joints[:2])
    longer = evaluation.fit_target_length(seq, 6)
    assert longer.num_frames == 6
    assert np.array_equal(longer.joints[4], seq.joints[3])
    assert np.array_equal(longer.joints[5], seq.joints[3])


def test_derive_kappa_refuses_no_inputs(bench):
    records, _, inputs, model = bench
    objective = evaluation.make_objectives(records, ["punching"],
                                           evaluation.DEFAULT_TOLERANCES, seed=1)[0]
    with pytest.raises(evaluation.EvaluationError, match="no test inputs"):
        evaluation.derive_kappa(model, [], objective)


def test_derive_kappa_is_percentile(bench):
    records, held, inputs, model = bench
    objective = evaluation.make_objectives(records, ["punching"],
                                           evaluation.DEFAULT_TOLERANCES, seed=1)[0]
    sums = [attack.distance_sum(model.predict_flat(seq.flat()), evaluation.fit_target_length(
        objective.target, seq.num_frames).flat()) for seq in inputs]
    assert evaluation.derive_kappa(model, inputs, objective, 25.0) \
        == pytest.approx(float(np.percentile(sums, 25.0)))


# sweeps ----------------------------------------------------------------------

def sweep_fixture(bench, kappa):
    records, held, inputs, model = bench
    objectives = [evaluation.Objective("punching",
                                       records[6].reactor.copy(), kappa)]
    cfg = attack.AttackConfig(steps=8)
    return evaluation.whitebox_sweep(model, "tcn:test", inputs, objectives,
                                     epsilon_grid=[0.15, 0.45], base_cfg=cfg), model


def test_sweep_infinite_kappa_rate_one(bench):
    report, _ = sweep_fixture(bench, math.inf)
    for cell in report.cells:
        assert cell.rate == 1.0
    assert report.mean_rate(0.15) == 1.0


def test_sweep_single_cell_shape(bench):
    records, held, inputs, model = bench
    objectives = [evaluation.Objective("kicking", records[4].reactor.copy(), 5.0)]
    report = evaluation.whitebox_sweep(model, "m", inputs[:1], objectives,
                                       epsilon_grid=[0.3],
                                       base_cfg=attack.AttackConfig(steps=5))
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert len(cell.flags) == 1 and len(cell.sums) == 1
    assert cell.epsilon == 0.3 and cell.objective == "kicking"


def test_sweep_requires_inputs(bench):
    records, held, inputs, model = bench
    with pytest.raises(evaluation.EvaluationError, match="no test inputs"):
        evaluation.whitebox_sweep(model, "m", [], [], epsilon_grid=[0.3],
                                  base_cfg=attack.AttackConfig())


def test_sweep_refuses_objectives_that_repeat_a_label(bench):
    # cells name their objective by label, so a repeated label has no one target
    records, held, inputs, model = bench
    objectives = [evaluation.Objective("kicking", records[i].reactor.copy(), 6.0) for i in (4, 6)]
    with pytest.raises(evaluation.EvaluationError, match="repeat a label"):
        evaluation.whitebox_sweep(model, "m", inputs[:1], objectives, epsilon_grid=[0.3],
                                  base_cfg=attack.AttackConfig(steps=2))


def test_sweep_reports_each_attack_in_order_and_judges_each_cell_once(bench, monkeypatch):
    records, held, inputs, model = bench
    objectives = [evaluation.Objective(label, records[i].reactor.copy(), 6.0)
                  for label, i in (("kicking", 4), ("punching", 6))]
    events = []
    judge = evaluation.judge

    def counting_judge(*args):
        events.append("judge")
        return judge(*args)

    monkeypatch.setattr(evaluation, "judge", counting_judge)
    report = evaluation.whitebox_sweep(
        model, "m", inputs, objectives, epsilon_grid=[0.15, 0.45],
        base_cfg=attack.AttackConfig(steps=2),
        on_result=lambda label, eps, result: events.append((label, eps, result)))
    expected = []
    for cell in report.cells:
        expected += [(cell.objective, cell.epsilon)] * len(inputs) + ["judge"]
    assert [e if e == "judge" else e[:2] for e in events] == expected
    results = iter(e[2] for e in events if e != "judge")
    for cell in report.cells:
        for adv in cell.adversarial:
            assert np.array_equal(next(results).adversarial.flat(), adv)


def test_sweep_flags_recomputable_from_stored_sequences(bench):
    # the criterion must be recoverable from the artifacts alone
    report, model = sweep_fixture(bench, 6.0)
    for cell in report.cells:
        for flag, total, adv in zip(cell.flags, cell.sums, cell.adversarial):
            target = evaluation.fit_target_length(
                report.objectives[0].target, adv.shape[0])
            recomputed = attack.distance_sum(model.predict_flat(adv), target.flat())
            assert recomputed == pytest.approx(total, rel=1e-12)
            assert flag == (recomputed < cell.kappa)


def test_rate_permutation_invariant(bench):
    report, _ = sweep_fixture(bench, 6.0)
    cell = report.cells[0]
    rate = cell.rate
    rng = np.random.default_rng(0)
    order = rng.permutation(len(cell.flags))
    shuffled = evaluation.CellResult(
        objective=cell.objective, epsilon=cell.epsilon, kappa=cell.kappa,
        sums=[cell.sums[i] for i in order], adversarial=[cell.adversarial[i] for i in order])
    assert shuffled.rate == rate


# transfer --------------------------------------------------------------------

def test_transfer_identity_reproduces_whitebox_flags(bench):
    report, model = sweep_fixture(bench, 6.0)
    entry = evaluation.blackbox_transfer(report, model, "tcn:test")
    assert entry.source_id == "tcn:test" and entry.receiver_id == "tcn:test"
    for wb, tr in zip(report.cells, entry.cells):
        assert wb.flags == tr.flags
        assert wb.sums == tr.sums


def test_batched_transfer_equals_judging_each_sequence(bench, monkeypatch):
    # sequences of two lengths, the longer judged two rows per forward pass
    report, _ = sweep_fixture(bench, 6.0)
    short = report.cells[0]
    short.adversarial = [adv[:5] for adv in short.adversarial]
    receiver = tiny_model(report.cells[0].adversarial[0].shape[1], seed=9)
    frames = report.cells[1].adversarial[0].shape[0]
    widest = max(p.shape[-1] for p in receiver.params.values())
    monkeypatch.setattr(evaluation, "_TRANSFER_BYTES", 2 * frames * widest * 8)
    entry = evaluation.blackbox_transfer(report, receiver, "other")
    target = report.objectives[0].target
    for cell in entry.cells:
        for adv, flag, total in zip(cell.adversarial, cell.flags, cell.sums):
            fitted = evaluation.fit_target_length(target, adv.shape[0]).flat()
            reference = attack.distance_sum(receiver.predict_flat(adv), fitted)
            assert (flag, total) == (reference < cell.kappa, reference)


def test_transfer_zero_output_receiver(bench):
    records, held, inputs, model = bench
    report, _ = sweep_fixture(bench, 6.0)
    receiver = tiny_model(inputs[0].flat().shape[1], seed=9)
    receiver.params["head_w"] = np.zeros_like(receiver.params["head_w"])
    receiver.params["head_b"] = np.zeros_like(receiver.params["head_b"])
    entry = evaluation.blackbox_transfer(report, receiver, "zero")
    for cell in entry.cells:
        target = evaluation.fit_target_length(report.objectives[0].target,
                                              cell.adversarial[0].shape[0])
        norm_sum = float(np.sum(np.linalg.norm(target.flat(), axis=1)))
        for flag in cell.flags:
            assert flag == (norm_sum < cell.kappa)


def test_transfer_dimension_mismatch(bench):
    report, _ = sweep_fixture(bench, 6.0)
    receiver = tiny_model(12, seed=3)  # different joint count
    with pytest.raises(models.ModelError, match="input"):
        evaluation.blackbox_transfer(report, receiver, "other")


# persistence -----------------------------------------------------------------

def test_csv_and_sweep_round_trip(bench, tmp_path):
    report, _ = sweep_fixture(bench, 6.0)
    csv_path = tmp_path / "report.csv"
    evaluation.write_csv(evaluation.report_rows(report), csv_path)
    text = csv_path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "model,objective,epsilon,successes,samples,rate"
    assert len(text) == 1 + len(report.cells)

    sweep_path = tmp_path / "sweep.json"
    evaluation.save_sweep(report, sweep_path)
    loaded = evaluation.load_sweep(sweep_path)
    assert loaded.model_id == report.model_id
    assert loaded.epsilon_grid == report.epsilon_grid
    for a, b in zip(report.cells, loaded.cells):
        assert a.flags == b.flags
        assert a.sums == pytest.approx(b.sums, rel=0, abs=0)
        for x, y in zip(a.adversarial, b.adversarial):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("drop", ["objectives", "model_id", "cells", "cells.flags",
                                  "objectives.target"])
def test_load_sweep_rejects_missing_keys(drop, bench, tmp_path):
    report, _ = sweep_fixture(bench, 6.0)
    path = tmp_path / "sweep.json"
    evaluation.save_sweep(report, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    section, _, key = drop.partition(".")
    if key:
        del payload[section][0][key]
    else:
        del payload[section]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(evaluation.EvaluationError, match="malformed sweep"):
        evaluation.load_sweep(path)


def test_failed_sweep_save_leaves_the_old_file(bench, tmp_path):
    report, _ = sweep_fixture(bench, 6.0)
    path = tmp_path / "sweep.json"
    evaluation.save_sweep(report, path)
    before = path.read_bytes()
    report.model_id = object()  # not JSON-serialisable
    with pytest.raises(TypeError):
        evaluation.save_sweep(report, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


@pytest.mark.parametrize("where", ["objectives", "cells"])
def test_load_sweep_rejects_non_finite_sequences(where, bench, tmp_path):
    report, _ = sweep_fixture(bench, 6.0)
    path = tmp_path / "sweep.json"
    evaluation.save_sweep(report, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if where == "objectives":
        payload["objectives"][0]["target"][1][2] = math.inf
    else:
        payload["cells"][1]["adversarial"][0][3][0] = math.nan
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(evaluation.EvaluationError, match="non-finite"):
        evaluation.load_sweep(path)


def kappa_1e9(cells):
    cells[0].update(kappa=1e9, flags=[True] * len(cells[0]["sums"]))


def epsilon_off_the_grid(cells):
    cells[1]["epsilon"] = 0.3


def cell_repeated(cells):
    cells[1] = cells[0]


def cells_swapped(cells):
    cells.reverse()


def cell_missing(cells):
    del cells[1]


@pytest.mark.parametrize("tamper,message", [
    (kappa_1e9, "not its slot"), (epsilon_off_the_grid, "not its slot"),
    (cell_repeated, "not its slot"), (cells_swapped, "not its slot"),
    (cell_missing, "1 cells for 1 objectives × 2 epsilons"),
], ids=["kappa-1e9", "epsilon-off-the-grid", "cell-repeated", "cells-swapped", "cell-missing"])
def test_load_sweep_refuses_a_cell_that_is_not_its_grid_slot(tamper, message, bench, tmp_path):
    # cell i is the i-th (objective, epsilon) of product(objectives, epsilon_grid),
    # with that objective's kappa; transfer judges each cell by its slot
    report, _ = sweep_fixture(bench, 6.0)
    path = tmp_path / "sweep.json"
    evaluation.save_sweep(report, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    tamper(payload["cells"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(evaluation.EvaluationError, match=message):
        evaluation.load_sweep(path)


def write_sweep_file(path, objectives, flags, sums, sequences):
    seq = np.full((3, 6), 0.4).tolist()
    payload = {"model_id": "tcn", "epsilon_grid": [0.45],
               "objectives": [{"label": label, "kappa": 1.0, "target": np.full((3, 6), fill).tolist()}
                              for label, fill in objectives],
               "cells": [{"objective": objectives[0][0], "epsilon": 0.45, "kappa": 1.0,
                          "flags": flags, "sums": sums, "adversarial": [seq] * sequences}]}
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("flags,sums,sequences", [
    (["false", "no", [0], None], [2.0] * 4, 4),
    ([True, False] * 4, [0.5, 2.0] * 4, 2),
    ([True, True], [0.5, 2.0], 2),
], ids=["flags-not-booleans", "eight-flags-two-sequences", "flag-its-sum-does-not-give"])
def test_load_sweep_refuses_flags_its_sums_do_not_give(flags, sums, sequences, tmp_path):
    # a cell's flags are its sums below its kappa, one per adversarial sequence
    path = tmp_path / "sweep.json"
    write_sweep_file(path, [("kicking", 0.4)], flags, sums, sequences)
    with pytest.raises(evaluation.EvaluationError, match="malformed sweep"):
        evaluation.load_sweep(path)


def test_load_sweep_refuses_an_objective_label_listed_twice(tmp_path):
    # transfer looks a cell's target up by label, so two targets under one label are ambiguous
    path = tmp_path / "sweep.json"
    write_sweep_file(path, [("kicking", 0.4), ("kicking", 0.6)], [False], [2.0], 1)
    with pytest.raises(evaluation.EvaluationError, match="label twice"):
        evaluation.load_sweep(path)

"""Success tolerances, white-box sweeps and cross-model transfer.

An attack on a sample counts as successful when the summed per-frame L2
distance between the model's output on the adversarial input and the
target sequence is strictly below the tolerance kappa for that target
reaction.  Per-reaction tolerances come from a built-in table of values
judged by human observers; reactions missing from the table fall back
to the mean of the present entries.

Every distance sum (sweep cells, transfer, derived tolerances) comes
from judge(): a batched forward pass of the judging model over stored
sequences, never the attack's cached numbers.  A cell stores its sums
and derives its flags.  A transfer is a SweepReport of the receiving
model, and a white-box sweep is its attacks transferred onto the attacked
model, so re-judging a sweep under its own model reproduces it bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackConfig, distance_sum, run_attack
from .data import (InteractionRecord, SkeletonSequence, array_from_json, atomic_write,
                   read_json, write_json)

DEFAULT_TOLERANCES = {
    "handshaking": 79.52,
    "punching": 52.04,
    "kicking": 93.17,
    "departing": 71.77,
    "pushing": 22.77,
}


class EvaluationError(ValueError):
    pass


def resolve_kappa(table: dict[str, float], label: str) -> float:
    """Exact table entry, or the mean of all entries for unsurveyed labels."""
    if not table:
        raise EvaluationError("tolerance table is empty")
    if label in table:
        return float(table[label])
    return float(sum(table.values()) / len(table))


@dataclass
class Objective:
    """A target reaction: label, target sequence and success tolerance."""

    label: str
    target: SkeletonSequence
    kappa: float


@dataclass
class CellResult:
    """Outcome of one (objective, epsilon) cell over all test samples."""

    objective: str
    epsilon: float
    kappa: float
    sums: list[float]
    adversarial: list[np.ndarray]

    @property
    def flags(self) -> list[bool]:
        return [total < self.kappa for total in self.sums]

    @property
    def rate(self) -> float:
        return sum(self.flags) / len(self.flags)


@dataclass
class SweepReport:
    model_id: str
    epsilon_grid: list[float]
    objectives: list[Objective]
    cells: list[CellResult] = field(default_factory=list)

    def mean_rate(self, epsilon: float) -> float:
        rates = [c.rate for c in self.cells if c.epsilon == epsilon]
        return sum(rates) / len(rates)


# ---------------------------------------------------------------------------
# objectives


def fit_target_length(target: SkeletonSequence, frames: int) -> SkeletonSequence:
    """Truncate, or pad with the final frame, to the requested length."""
    joints = target.joints
    if joints.shape[0] >= frames:
        return SkeletonSequence(joints[:frames].copy())
    pad = np.repeat(joints[-1:], frames - joints.shape[0], axis=0)
    return SkeletonSequence(np.concatenate([joints, pad], axis=0))


def make_objectives(records: list[InteractionRecord],
                    categories: list[str],
                    tolerances: dict[str, float],
                    seed: int = 0,
                    prefer_ids=None) -> list[Objective]:
    """One objective per category; targets are sampled reactor sequences.

    Candidates are drawn from records whose set id is in `prefer_ids`
    (typically the held-out sets) and fall back to any record of the
    category when none is held out.
    """
    rng = np.random.default_rng(seed)
    objectives = []
    prefer = set(prefer_ids or ())
    for label in categories:
        candidates = [r for r in records if r.category == label]
        held = [r for r in candidates if r.set_id in prefer]
        if held:
            candidates = held
        if not candidates:
            raise EvaluationError(f"no records of category {label!r} to sample a target from")
        pick = candidates[int(rng.integers(len(candidates)))]
        objectives.append(Objective(
            label=label,
            target=pick.reactor.copy(),
            kappa=resolve_kappa(tolerances, label),
        ))
    return objectives


def derive_kappa(model, inputs: list[SkeletonSequence], objective: Objective,
                 percentile: float = 25.0) -> float:
    """Percentile of the natural distance sums, for survey-free tolerances."""
    if not inputs:
        raise EvaluationError("no test inputs to derive a tolerance from")
    fitted = [fit_target_length(objective.target, seq.num_frames).flat() for seq in inputs]
    return float(np.percentile(judge(model, [s.flat() for s in inputs], fitted), percentile))


# ---------------------------------------------------------------------------
# judging, sweeps and transfer


# The bytes one batched judging pass may give its widest layer's activations
# (rows x frames x widest weight width x 8).  Larger batches gain no speed
# at the full presets and cost memory at every scale.
_TRANSFER_BYTES = 2 ** 20


def judge(model, sequences: list[np.ndarray], targets: list[np.ndarray]) -> list[float]:
    """Each sequence's distance sum to its target under `model`'s forward pass.

    Sequences of one shape share batched passes, as many rows per pass as
    _TRANSFER_BYTES allows; a row's output and sum are bitwise its own, so
    batching changes nothing.
    """
    by_shape: dict[tuple, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_shape.setdefault(seq.shape, []).append(i)
    widest = max(p.shape[-1] for p in model.params.values())
    sums = [0.0] * len(sequences)
    for (frames, _), members in by_shape.items():
        per_pass = max(1, _TRANSFER_BYTES // (frames * widest * 8))
        for lo in range(0, len(members), per_pass):
            chunk = members[lo:lo + per_pass]
            rows = model.predict_flat(np.stack([sequences[i] for i in chunk]))
            totals = distance_sum(rows, np.stack([targets[i] for i in chunk]))
            for i, total in zip(chunk, totals):
                sums[i] = total
    return sums


def whitebox_sweep(model, model_id: str,
                   inputs: list[SkeletonSequence],
                   objectives: list[Objective],
                   epsilon_grid: list[float],
                   base_cfg: AttackConfig,
                   on_result=None) -> SweepReport:
    """Attack every (sample, objective, epsilon) cell and aggregate rates.

    `on_result` sees each attack as it ends.  The cells are judged once, after
    the last attack: a white-box sweep is its attacks transferred onto the
    attacked model, by the one judging path.
    """
    if not inputs:
        raise EvaluationError("no test inputs to attack")
    if len({o.label for o in objectives}) != len(objectives):
        raise EvaluationError("objectives repeat a label, which names each cell's target")
    grid = list(epsilon_grid)
    if len(set(grid)) != len(grid):
        raise EvaluationError("the epsilon grid repeats a value, which names each cell's slot")
    cells = []
    for objective, eps in itertools.product(objectives, grid):
        advs = []
        for seq in inputs:
            target = fit_target_length(objective.target, seq.num_frames)
            cfg = replace(base_cfg, target=target, kappa=objective.kappa, epsilon=eps)
            result = run_attack(model, seq, cfg)
            advs.append(result.adversarial.flat())
            if on_result is not None:
                on_result(objective.label, eps, result)
        cells.append(CellResult(objective.label, eps, objective.kappa, sums=[], adversarial=advs))
    return blackbox_transfer(SweepReport(model_id, grid, objectives, cells), model, model_id)


def blackbox_transfer(sweep: SweepReport, receiver, receiver_id: str) -> SweepReport:
    """`sweep` as judged by `receiver`: its cells' sums all from one judge() call."""
    targets = {o.label: o.target for o in sweep.objectives}
    pairs = [(cell, adv) for cell in sweep.cells for adv in cell.adversarial]
    sums = iter(judge(receiver, [adv for _, adv in pairs],
                      [fit_target_length(targets[c.objective], adv.shape[0]).flat()
                       for c, adv in pairs]))
    return replace(sweep, model_id=receiver_id,
                   cells=[replace(cell, sums=[next(sums) for _ in cell.adversarial])
                          for cell in sweep.cells])


# ---------------------------------------------------------------------------
# persistence


def cell_rows(columns: dict, cells: list[CellResult]) -> list[dict]:
    """One CSV row per cell: the `columns` (which models), then the cell's counts."""
    return [{**columns, "objective": c.objective, "epsilon": c.epsilon,
             "successes": sum(c.flags), "samples": len(c.flags), "rate": c.rate}
            for c in cells]


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise EvaluationError("nothing to write")
    headers = list(rows[0])
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in headers))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_sweep(report: SweepReport, path) -> None:
    payload = {
        "model_id": report.model_id,
        "epsilon_grid": report.epsilon_grid,
        "objectives": [
            {"label": o.label, "kappa": o.kappa, "target": o.target.flat()}
            for o in report.objectives
        ],
        "cells": [
            {
                "objective": c.objective,
                "epsilon": c.epsilon,
                "kappa": c.kappa,
                "flags": c.flags,
                "sums": c.sums,
                "adversarial": c.adversarial,
            }
            for c in report.cells
        ],
    }
    write_json(path, payload)


def load_sweep(path) -> SweepReport:
    """save_sweep's layout: a cell per product(objectives, epsilon_grid) slot, in that order,
    repeating its slot's label, epsilon and kappa beside a flag, sum and sequence per sample."""
    return read_json(path, EvaluationError(f"malformed sweep file {path}"), _sweep_from_json)


def _finite_number(value):
    """`value` unchanged, once it is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    array_from_json(value)
    return value


def _sweep_from_json(payload: dict) -> SweepReport:
    objectives = [
        Objective(label=o["label"],
                  target=SkeletonSequence.from_flat(array_from_json(o["target"])),
                  kappa=_finite_number(o["kappa"]))
        for o in payload["objectives"]
    ]
    if len({o.label for o in objectives}) != len(objectives):
        raise ValueError("the sweep lists an objective label twice")
    grid = [_finite_number(e) for e in payload["epsilon_grid"]]
    if len(set(grid)) != len(grid):
        raise ValueError("the sweep lists an epsilon twice")
    report = SweepReport(model_id=payload["model_id"], epsilon_grid=grid, objectives=objectives)
    if len(payload["cells"]) != len(objectives) * len(grid):
        raise ValueError(f"{len(payload['cells'])} cells for {len(objectives)} objectives "
                         f"× {len(grid)} epsilons")
    for (objective, eps), c in zip(itertools.product(objectives, grid), payload["cells"]):
        slot = (objective.label, eps, objective.kappa)
        if (c["objective"], _finite_number(c["epsilon"]), _finite_number(c["kappa"])) != slot:
            raise ValueError(f"a cell is not its slot's (objective, epsilon, kappa) {slot}")
        width = objective.target.flat().shape[1]
        adversarial = [array_from_json(a) for a in c["adversarial"]]
        if not adversarial:
            raise ValueError("a cell holds no adversarial sequences")
        for a in adversarial:
            if a.ndim != 2 or a.shape[1] != width:
                raise ValueError(f"an adversarial sequence of shape {a.shape} for a target "
                                 f"{width} coordinates wide")
        cell = CellResult(objective=objective.label, epsilon=eps, kappa=objective.kappa,
                          sums=[_finite_number(v) for v in c["sums"]], adversarial=adversarial)
        if len(cell.sums) != len(adversarial):
            raise ValueError(f"a cell holds {len(cell.sums)} sums for {len(adversarial)} sequences")
        if c["flags"] != cell.flags or any(type(f) is not bool for f in c["flags"]):
            raise ValueError("a cell's flags are not its distance sums below its kappa")
        report.cells.append(cell)
    if not report.cells:
        raise ValueError("the sweep holds no cells")
    return report

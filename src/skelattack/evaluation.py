"""Success tolerances, white-box sweeps and cross-model transfer.

An attack on a sample counts as successful when the summed per-frame L2
distance between the model's output on the adversarial input and the
target sequence is strictly below the tolerance kappa for that target
reaction.  Per-reaction tolerances come from a built-in table of values
judged by human observers; reactions missing from the table fall back
to the mean of the present entries.

Success flags are always recomputed here from the stored adversarial
sequences and the judging model's own forward pass, never read off the
attack's cached numbers.  That makes transfer evaluation trivially
consistent: feeding sequences back into the model that produced them
reproduces the white-box flags bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attack import EPSILON_GRID, AttackConfig, distance_sum, run_attack
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
    flags: list[bool]
    sums: list[float]
    adversarial: list[np.ndarray]

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


@dataclass
class TransferEntry:
    source_id: str
    receiver_id: str
    cells: list[CellResult] = field(default_factory=list)


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
    prefer = set(prefer_ids) if prefer_ids is not None else None
    for label in categories:
        candidates = [r for r in records if r.category == label]
        if prefer is not None:
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


def natural_sums(model, inputs: list[SkeletonSequence], objective: Objective) -> list[float]:
    """Distance sums of unattacked outputs against the objective's target."""
    sums = []
    for seq in inputs:
        target = fit_target_length(objective.target, seq.num_frames)
        sums.append(distance_sum(model.predict_flat(seq.flat()), target.flat()))
    return sums


def derive_kappa(model, inputs: list[SkeletonSequence], objective: Objective,
                 percentile: float = 25.0) -> float:
    """Percentile of the natural distance sums, for survey-free tolerances."""
    return float(np.percentile(natural_sums(model, inputs, objective), percentile))


# ---------------------------------------------------------------------------
# sweeps and transfer


def judge_output(output: np.ndarray, target: np.ndarray, kappa: float
                 ) -> tuple[bool, float]:
    """The success criterion on a model output: its distance sum is below kappa."""
    total = distance_sum(output, target)
    return total < kappa, total


def judge(model, adversarial: np.ndarray, target: np.ndarray, kappa: float
          ) -> tuple[bool, float]:
    """Recompute the success criterion under `model`'s forward pass."""
    return judge_output(model.predict_flat(adversarial), target, kappa)


def whitebox_sweep(model, model_id: str,
                   inputs: list[SkeletonSequence],
                   objectives: list[Objective],
                   epsilon_grid=None,
                   base_cfg: AttackConfig | None = None,
                   on_result=None) -> SweepReport:
    """Attack every (sample, objective, epsilon) cell and aggregate rates."""
    if not inputs:
        raise EvaluationError("no test inputs to attack")
    grid = list(epsilon_grid) if epsilon_grid is not None else list(EPSILON_GRID)
    base = base_cfg if base_cfg is not None else AttackConfig()
    report = SweepReport(model_id=model_id, epsilon_grid=grid, objectives=objectives)
    for objective in objectives:
        for eps in grid:
            flags, sums, advs = [], [], []
            for seq in inputs:
                target = fit_target_length(objective.target, seq.num_frames)
                cfg = replace(base, target=target, kappa=objective.kappa, epsilon=eps)
                result = run_attack(model, seq, cfg)
                adv = result.adversarial.flat()
                ok, total = judge(model, adv, target.flat(), objective.kappa)
                flags.append(ok)
                sums.append(total)
                advs.append(adv)
                if on_result is not None:
                    on_result(objective.label, eps, result)
            report.cells.append(CellResult(
                objective=objective.label, epsilon=eps, kappa=objective.kappa,
                flags=flags, sums=sums, adversarial=advs))
    return report


# The bytes one batched transfer pass may give its widest layer's activations
# (rows x frames x widest weight width x 8).  Larger batches gain no speed
# at the full presets and cost memory at every scale.
_TRANSFER_BYTES = 2 ** 20


def blackbox_transfer(sweep: SweepReport, receiver, receiver_id: str) -> TransferEntry:
    """Re-judge a sweep's adversarial sequences under another model.

    Sequences of one shape are stacked and judged in batched forward
    passes of the receiver, as many rows per pass as _TRANSFER_BYTES
    allows.  A batched row is bitwise the sequence's own forward, so flags
    and sums equal judge()'s.
    """
    targets = {o.label: o.target for o in sweep.objectives}
    advs = [adv for cell in sweep.cells for adv in cell.adversarial]
    by_shape: dict[tuple, list[int]] = {}
    for i, adv in enumerate(advs):
        by_shape.setdefault(adv.shape, []).append(i)
    widest = max(p.shape[-1] for p in receiver.params.values())
    outputs: list[np.ndarray] = [None] * len(advs)
    for (frames, _), members in by_shape.items():
        per_pass = max(1, _TRANSFER_BYTES // (frames * widest * 8))
        for lo in range(0, len(members), per_pass):
            chunk = members[lo:lo + per_pass]
            rows = receiver.predict_flat(np.stack([advs[i] for i in chunk]))
            for i, row in zip(chunk, rows):
                outputs[i] = row
    entry = TransferEntry(source_id=sweep.model_id, receiver_id=receiver_id)
    done = iter(outputs)
    for cell in sweep.cells:
        flags, sums = [], []
        for adv in cell.adversarial:
            target = fit_target_length(targets[cell.objective], adv.shape[0])
            ok, total = judge_output(next(done), target.flat(), cell.kappa)
            flags.append(ok)
            sums.append(total)
        entry.cells.append(CellResult(
            objective=cell.objective, epsilon=cell.epsilon, kappa=cell.kappa,
            flags=flags, sums=sums, adversarial=cell.adversarial))
    return entry


# ---------------------------------------------------------------------------
# persistence


def report_rows(report: SweepReport) -> list[dict]:
    return [
        {
            "model": report.model_id,
            "objective": c.objective,
            "epsilon": c.epsilon,
            "successes": sum(c.flags),
            "samples": len(c.flags),
            "rate": c.rate,
        }
        for c in report.cells
    ]


def transfer_rows(entry: TransferEntry) -> list[dict]:
    return [
        {
            "source": entry.source_id,
            "receiver": entry.receiver_id,
            "objective": c.objective,
            "epsilon": c.epsilon,
            "successes": sum(c.flags),
            "samples": len(c.flags),
            "rate": c.rate,
        }
        for c in entry.cells
    ]


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise EvaluationError("nothing to write")
    headers = list(rows[0])
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                              for h in headers))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_sweep(report: SweepReport, path) -> None:
    payload = {
        "model_id": report.model_id,
        "epsilon_grid": report.epsilon_grid,
        "objectives": [
            {"label": o.label, "kappa": o.kappa, "target": o.target.flat().tolist()}
            for o in report.objectives
        ],
        "cells": [
            {
                "objective": c.objective,
                "epsilon": c.epsilon,
                "kappa": c.kappa,
                "flags": c.flags,
                "sums": c.sums,
                "adversarial": [a.tolist() for a in c.adversarial],
            }
            for c in report.cells
        ],
    }
    write_json(path, payload)


def load_sweep(path) -> SweepReport:
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
    widths = {o.label: o.target.flat().shape[1] for o in objectives}
    report = SweepReport(model_id=payload["model_id"],
                         epsilon_grid=[_finite_number(e) for e in payload["epsilon_grid"]],
                         objectives=objectives)
    for c in payload["cells"]:
        if c["objective"] not in widths:
            raise ValueError(f"a cell names objective {c['objective']!r}, "
                             f"which the sweep does not list")
        adversarial = [array_from_json(a) for a in c["adversarial"]]
        if not adversarial:
            raise ValueError("a cell holds no adversarial sequences")
        for a in adversarial:
            if a.ndim != 2 or a.shape[1] != widths[c["objective"]]:
                raise ValueError(f"an adversarial sequence of shape {a.shape} for a target "
                                 f"{widths[c['objective']]} coordinates wide")
        report.cells.append(CellResult(
            objective=c["objective"], epsilon=_finite_number(c["epsilon"]),
            kappa=_finite_number(c["kappa"]), flags=[bool(f) for f in c["flags"]],
            sums=[_finite_number(v) for v in c["sums"]], adversarial=adversarial))
    if not report.cells:
        raise ValueError("the sweep holds no cells")
    return report

"""Navigation metrics (SR, OSR, SPL), forgetting rates, and report emission.

Distances are Euclidean; at desk scale trajectories live in open 2-D space so
the Euclidean distance is the geodesic distance. SPL defaults to the standard
form ``SR * TL_ref / max(TL, TL_ref)``; the alternative ``SR * TL / TL_ref``
(which rewards longer paths) is selectable via ``spl_literal=True``.

A forgetting rate compares a metric X against its reference value M-X from a
run trained only up to that task: ``F-X = (M-X - X) / M-X``. Negative values
mean backward transfer. A non-positive reference makes the rate undefined
(reported as None, never raised).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, check_field, check_ranges
from .runfiles import read_json, write_atomic

DEFAULT_SUCCESS_RADIUS = 3.0


@dataclass
class EpisodeRecord:
    """One evaluated episode, or a stack whose row r owns its first
    ``n_points[r]`` points: where the agent went and where it should have."""

    trajectory: np.ndarray          # (n_points, 2 or 3) positions, start included
    goal: np.ndarray                # target position
    tl_ref: float | np.ndarray      # reference (shortest demonstrated) path length
    epsilon: float = DEFAULT_SUCCESS_RADIUS
    n_points: np.ndarray | None = None  # (k,) for a stack

    def __post_init__(self):
        self.trajectory = np.atleast_2d(np.asarray(self.trajectory, dtype=float))
        self.goal = np.asarray(self.goal, dtype=float)
        if self.trajectory.size == 0:
            raise ValueError("empty trajectory")
        if np.any(np.asarray(self.tl_ref) <= 0):
            raise ValueError(f"reference path length must be > 0, got {self.tl_ref}")
        if self.epsilon <= 0:
            raise ValueError("success threshold must be > 0")

    @property
    def tl(self) -> float | np.ndarray:
        return path_length(self.trajectory, self.n_points)


def path_length(trajectory: np.ndarray, n_points: np.ndarray | None = None):
    """Summed segment lengths of a path, or of each row of a stack over its own
    points only: adding the padding's 0.0 would regroup the pairwise sum."""
    norms = np.linalg.norm(np.diff(trajectory, axis=-2), axis=-1)
    if n_points is None:
        return np.add.reduce(norms, axis=-1)
    lengths = np.empty(len(norms))
    for n in set(n_points.tolist()):
        lengths[n_points == n] = np.add.reduce(norms[n_points == n, :n - 1], axis=-1)
    return lengths


def success_rate(rec: EpisodeRecord):
    """1 iff the final position is within epsilon of the goal (inclusive)."""
    gap = (rec.trajectory[..., -1, :] - rec.goal)[..., None, :]
    return (np.sqrt(gap @ gap.swapaxes(-1, -2))[..., 0, 0] <= rec.epsilon).astype(int)


def oracle_success(rec: EpisodeRecord):
    """1 iff any trajectory point passes within epsilon of the goal."""
    d = np.linalg.norm(rec.trajectory - rec.goal[..., None, :], axis=-1)
    return (np.min(d, axis=-1) <= rec.epsilon).astype(int)


def spl(rec: EpisodeRecord, literal: bool = False):
    """Success weighted by path efficiency."""
    sr = success_rate(rec)
    if literal:
        return sr * rec.tl / rec.tl_ref
    return sr * rec.tl_ref / np.maximum(rec.tl, rec.tl_ref)


@dataclass
class TaskScore:
    """Mean metrics for one task, with optional reference values."""

    # see config.check_ranges; SPL with spl_literal may pass 1
    RANGES = {**dict.fromkeys(("sr", "osr", "m_sr", "m_osr"), "[0, 1]"),
              "spl": "[0, inf)", "m_spl": "[0, inf)"}

    task: int
    sr: float
    spl: float
    osr: float
    m_sr: float | None = None
    m_spl: float | None = None
    m_osr: float | None = None

    @classmethod
    def from_row(cls, row, where: str) -> "TaskScore":
        """The score a JSON row holds; a fault is a ValueError naming ``where``."""
        _check_keys(row, where)
        try:
            score = cls(**{k: check_field(cls, k, row.get(k))
                           for k in cls.__dataclass_fields__})
            check_ranges(score, cls.RANGES)
        except ConfigError as exc:
            raise ValueError(f"{where}: {exc}") from None
        return score

    def forgetting_rates(self) -> tuple[float | None, float | None, float | None]:
        return (forgetting_rate(self.m_sr, self.sr),
                forgetting_rate(self.m_spl, self.spl),
                forgetting_rate(self.m_osr, self.osr))


def _check_keys(row, where: str) -> None:
    if not isinstance(row, dict):
        raise ValueError(f"{where}: expected a score object")
    missing = [k for k in ("task", "sr", "spl", "osr") if k not in row]
    if missing:
        raise ValueError(f"{where} has no {', '.join(missing)}")


def forgetting_rate(reference: float | None, value: float) -> float | None:
    """(M-X - X) / M-X, or None when the reference is missing/non-positive."""
    if reference is None or reference <= 0:
        return None
    return (reference - value) / reference


def score_task(task: int, records: list[EpisodeRecord],
               spl_literal: bool = False) -> TaskScore:
    """Mean metrics over every episode of ``records``, taken in order."""
    if not records:
        raise ValueError("cannot score a task with no episode records")
    sr, spl_, osr = (
        float(np.mean(np.concatenate([np.atleast_1d(fn(r)) for r in records])))
        for fn in (success_rate, lambda r: spl(r, literal=spl_literal), oracle_success))
    return TaskScore(task=task, sr=sr, spl=spl_, osr=osr)


# ---------------------------------------------------------------------------
# Aggregation and report rendering
# ---------------------------------------------------------------------------

_COLUMNS = ("task", "sr", "spl", "osr", "m_sr", "m_spl", "m_osr",
            "f_sr", "f_spl", "f_osr")


def score_rows(scores: list[TaskScore]) -> list[dict]:
    rows = []
    for sc in scores:
        f_sr, f_spl, f_osr = sc.forgetting_rates()
        rows.append({"task": sc.task, "sr": sc.sr, "spl": sc.spl, "osr": sc.osr,
                     "m_sr": sc.m_sr, "m_spl": sc.m_spl, "m_osr": sc.m_osr,
                     "f_sr": f_sr, "f_spl": f_spl, "f_osr": f_osr})
    avg = {"task": "avg"}
    for col in _COLUMNS[1:]:
        vals = [r[col] for r in rows if r[col] is not None]
        avg[col] = float(np.mean(vals)) if vals else None
    rows.append(avg)
    return rows


def render_csv(scores: list[TaskScore]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in score_rows(scores):
        writer.writerow(["" if row[c] is None else repr(row[c])
                         if isinstance(row[c], float) else row[c]
                         for c in _COLUMNS])
    return buf.getvalue()


def render_json(scores: list[TaskScore]) -> str:
    return json.dumps(score_rows(scores), indent=2)


def render_table(scores: list[TaskScore]) -> str:
    def fmt(v):
        if v is None:
            return "   -  "
        if isinstance(v, str):
            return f"{v:>6}"
        return f"{100 * v:6.1f}"

    lines = ["task     SR   SPL   OSR   M-SR  M-SPL M-OSR  F-SR  F-SPL F-OSR"]
    for row in score_rows(scores):
        cells = " ".join(fmt(row[c]) for c in _COLUMNS[1:])
        lines.append(f"{row['task']!s:>4} {cells}")
    return "\n".join(lines) + "\n"


def write_reports(directory, scores: list[TaskScore], extra_manifest: dict | None = None):
    """Emit scores.csv / scores.json / report.txt (+ manifest) into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_atomic(directory / "scores.csv", render_csv(scores))
    write_atomic(directory / "scores.json", render_json(scores))
    write_atomic(directory / "report.txt", render_table(scores))
    if extra_manifest is not None:
        write_atomic(directory / "manifest.json",
                     json.dumps(extra_manifest, indent=2))
    return directory


def read_scores(directory) -> list[TaskScore]:
    """The task scores `write_reports` wrote to ``directory``, each read by
    `TaskScore.from_row`; of the "avg" row only the keys are checked."""
    path = Path(directory) / "scores.json"
    scores = []
    for i, row in enumerate(read_json(path, list)):
        if isinstance(row, dict) and row.get("task") == "avg":
            _check_keys(row, f"{path}: row {i}")
        else:
            scores.append(TaskScore.from_row(row, f"{path}: row {i}"))
    return scores

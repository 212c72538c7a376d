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

import numpy as np

DEFAULT_SUCCESS_RADIUS = 3.0


@dataclass
class EpisodeRecord:
    """One evaluated episode: where the agent went and where it should have."""

    trajectory: np.ndarray          # (n_points, 2 or 3) positions, start included
    goal: np.ndarray                # target position
    tl_ref: float                   # reference (shortest demonstrated) path length
    epsilon: float = DEFAULT_SUCCESS_RADIUS

    def __post_init__(self):
        self.trajectory = np.atleast_2d(np.asarray(self.trajectory, dtype=float))
        self.goal = np.asarray(self.goal, dtype=float)
        if self.trajectory.size == 0:
            raise ValueError("empty trajectory")
        if self.tl_ref <= 0:
            raise ValueError(f"reference path length must be > 0, got {self.tl_ref}")
        if self.epsilon <= 0:
            raise ValueError("success threshold must be > 0")

    @property
    def tl(self) -> float:
        segs = np.diff(self.trajectory, axis=0)
        return float(np.sum(np.linalg.norm(segs, axis=1)))


def success_rate(rec: EpisodeRecord) -> int:
    """1 iff the final position is within epsilon of the goal (inclusive)."""
    return int(np.linalg.norm(rec.trajectory[-1] - rec.goal) <= rec.epsilon)


def oracle_success(rec: EpisodeRecord) -> int:
    """1 iff any trajectory point passes within epsilon of the goal."""
    d = np.linalg.norm(rec.trajectory - rec.goal, axis=1)
    return int(np.min(d) <= rec.epsilon)


def spl(rec: EpisodeRecord, literal: bool = False) -> float:
    """Success weighted by path efficiency."""
    sr = success_rate(rec)
    if literal:
        return sr * rec.tl / rec.tl_ref
    return sr * rec.tl_ref / max(rec.tl, rec.tl_ref)


@dataclass
class TaskScore:
    """Mean metrics for one task, with optional reference values."""

    task: int
    sr: float
    spl: float
    osr: float
    m_sr: float | None = None
    m_spl: float | None = None
    m_osr: float | None = None

    def forgetting_rates(self) -> tuple[float | None, float | None, float | None]:
        return (forgetting_rate(self.m_sr, self.sr),
                forgetting_rate(self.m_spl, self.spl),
                forgetting_rate(self.m_osr, self.osr))


def forgetting_rate(reference: float | None, value: float) -> float | None:
    """(M-X - X) / M-X, or None when the reference is missing/non-positive."""
    if reference is None or reference <= 0:
        return None
    return (reference - value) / reference


def score_task(task: int, records: list[EpisodeRecord],
               spl_literal: bool = False) -> TaskScore:
    if not records:
        raise ValueError("cannot score a task with no episode records")
    return TaskScore(
        task=task,
        sr=float(np.mean([success_rate(r) for r in records])),
        spl=float(np.mean([spl(r, literal=spl_literal) for r in records])),
        osr=float(np.mean([oracle_success(r) for r in records])),
    )


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
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scores.csv").write_text(render_csv(scores))
    (directory / "scores.json").write_text(render_json(scores))
    (directory / "report.txt").write_text(render_table(scores))
    if extra_manifest is not None:
        (directory / "manifest.json").write_text(json.dumps(extra_manifest, indent=2))
    return directory

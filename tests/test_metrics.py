"""Metric definitions, forgetting rates, and report round-trips."""

import csv
import io

import numpy as np
import pytest

from tucker_adapters.metrics import (
    EpisodeRecord,
    TaskScore,
    forgetting_rate,
    oracle_success,
    render_csv,
    render_json,
    render_table,
    score_rows,
    score_task,
    spl,
    success_rate,
    write_reports,
)


def straight_record(n_steps=4, goal=None, eps=3.0):
    traj = np.column_stack([np.arange(n_steps + 1, dtype=float),
                            np.zeros(n_steps + 1)])
    goal = traj[-1] if goal is None else np.asarray(goal, dtype=float)
    return EpisodeRecord(trajectory=traj, goal=goal, tl_ref=float(n_steps),
                         epsilon=eps)


# ---------------------------------------------------------------------------
# SR / OSR / SPL
# ---------------------------------------------------------------------------

def test_sr_exact_goal():
    assert success_rate(straight_record()) == 1


def test_sr_boundary_inclusive():
    rec = straight_record(goal=[4.0 + 3.0, 0.0])  # distance exactly epsilon
    assert success_rate(rec) == 1


def test_sr_fails_at_twice_epsilon():
    rec = straight_record(goal=[4.0 + 6.0, 0.0])
    assert success_rate(rec) == 0


def test_oracle_success_pass_through():
    # walks through the goal then keeps going: OSR=1 while SR=0
    traj = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]])
    rec = EpisodeRecord(trajectory=traj, goal=np.array([5.0, 0.0]),
                        tl_ref=5.0, epsilon=1.0)
    assert oracle_success(rec) == 1
    assert success_rate(rec) == 0


def test_oracle_never_below_sr():
    rng = np.random.default_rng(0)
    for _ in range(50):
        traj = np.cumsum(rng.standard_normal((6, 2)), axis=0)
        rec = EpisodeRecord(trajectory=traj, goal=rng.standard_normal(2),
                            tl_ref=1.0, epsilon=1.5)
        assert oracle_success(rec) >= success_rate(rec)


def test_oracle_far_path_fails():
    traj = np.array([[0.0, 0.0], [1.0, 0.0]])
    rec = EpisodeRecord(trajectory=traj, goal=np.array([0.0, 50.0]),
                        tl_ref=1.0, epsilon=1.0)
    assert oracle_success(rec) == 0


def test_spl_perfect_path():
    rec = straight_record()
    assert spl(rec) == pytest.approx(1.0)
    assert spl(rec, literal=True) == pytest.approx(1.0)


def test_spl_zero_on_failure():
    rec = straight_record(goal=[50.0, 0.0])
    assert spl(rec) == 0.0
    assert spl(rec, literal=True) == 0.0


def test_spl_halved_for_double_length():
    traj = np.column_stack([np.linspace(0, 8, 9), np.zeros(9)])
    rec = EpisodeRecord(trajectory=traj, goal=traj[-1], tl_ref=4.0, epsilon=3.0)
    assert spl(rec) == pytest.approx(0.5)           # standard convention
    assert spl(rec, literal=True) == pytest.approx(2.0)  # published formula


def test_spl_never_exceeds_sr_default():
    rng = np.random.default_rng(1)
    for _ in range(50):
        traj = np.cumsum(rng.uniform(-1, 1, size=(5, 2)), axis=0)
        rec = EpisodeRecord(trajectory=traj, goal=traj[-1] + rng.uniform(0, 4, 2),
                            tl_ref=2.0, epsilon=3.0)
        assert spl(rec) <= success_rate(rec)


def test_record_validation():
    with pytest.raises(ValueError, match="reference path"):
        EpisodeRecord(trajectory=np.zeros((2, 2)), goal=np.zeros(2), tl_ref=0.0)
    with pytest.raises(ValueError, match="threshold"):
        EpisodeRecord(trajectory=np.zeros((2, 2)), goal=np.zeros(2),
                      tl_ref=1.0, epsilon=0.0)


def test_trajectory_length_consistency():
    traj = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 8.0]])
    rec = EpisodeRecord(trajectory=traj, goal=traj[-1], tl_ref=9.0)
    assert rec.tl == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# Forgetting rates
# ---------------------------------------------------------------------------

def test_forgetting_zero_when_equal():
    assert forgetting_rate(0.8, 0.8) == 0.0


def test_forgetting_arithmetic():
    assert forgetting_rate(0.8, 0.6) == pytest.approx(0.25)


def test_forgetting_negative_on_backward_transfer():
    assert forgetting_rate(0.6, 0.8) < 0.0


def test_forgetting_scale_invariant():
    c = 7.3
    assert forgetting_rate(0.5 * c, 0.3 * c) == pytest.approx(
        forgetting_rate(0.5, 0.3))


def test_forgetting_undefined_for_zero_reference():
    assert forgetting_rate(0.0, 0.5) is None
    assert forgetting_rate(None, 0.5) is None
    score = TaskScore(task=0, sr=0.5, spl=0.4, osr=0.6, m_sr=0.0)
    f_sr, f_spl, f_osr = score.forgetting_rates()
    assert f_sr is None and f_spl is None and f_osr is None


# ---------------------------------------------------------------------------
# Aggregation and reports
# ---------------------------------------------------------------------------

def sample_scores():
    return [TaskScore(task=0, sr=0.8, spl=0.7, osr=0.9, m_sr=0.8, m_spl=0.8,
                      m_osr=0.9),
            TaskScore(task=1, sr=0.4, spl=0.3, osr=0.5, m_sr=0.8, m_spl=0.6,
                      m_osr=0.8)]


def test_single_task_average_is_itself():
    rows = score_rows(sample_scores()[:1])
    assert rows[-1]["task"] == "avg"
    assert rows[-1]["sr"] == rows[0]["sr"]


def test_average_matches_recomputation():
    rows = score_rows(sample_scores())
    assert rows[-1]["sr"] == pytest.approx((0.8 + 0.4) / 2)
    assert rows[-1]["f_sr"] == pytest.approx((0.0 + 0.5) / 2)


def test_csv_roundtrip_exact():
    scores = sample_scores()
    text = render_csv(scores)

    def cell(key, val):
        if val == "":
            return None
        if key == "task":
            return val if val == "avg" else int(val)
        return float(val)

    rows = [{key: cell(key, val) for key, val in raw.items()}
            for raw in csv.DictReader(io.StringIO(text))]
    originals = score_rows(scores)
    assert len(rows) == len(originals)
    for parsed, orig in zip(rows, originals):
        for key, val in orig.items():
            if isinstance(val, float):
                assert parsed[key] == val  # repr round-trip is exact
            else:
                assert parsed[key] == val


def test_json_and_table_render():
    scores = sample_scores()
    assert '"task": "avg"' in render_json(scores)
    table = render_table(scores)
    assert "avg" in table and "F-SR" in table


def test_write_reports(tmp_path):
    out = write_reports(tmp_path / "rep", sample_scores(), {"config_hash": "x"})
    assert (out / "scores.csv").exists()
    assert (out / "scores.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "manifest.json").exists()


def test_score_task_requires_records():
    with pytest.raises(ValueError, match="no episode"):
        score_task(0, [])

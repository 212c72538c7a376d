"""The committed benchmark trail: each ``BENCH_*.json`` at the repository
root holds parent and change results of ``bench/run.py`` for one change.

Every file must parse, name only the workloads and metrics ``BENCHMARK.json``
defines, and give each side of each end-to-end metric a median and
quartiles, so that a speed claim can be read back from the file alone. The
median, quartiles and wins must be those of the runs the file lists, the
change may fail no operation, and its outputs must equal the parent's. A
file that records a ``claim`` must show it: the change wins at least 9 in
10 pairs on the claimed metric, by more than the parent's quartile spread.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SIDES = ("parent", "change")
TRAIL = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trail_has_a_file():
    assert TRAIL


@pytest.mark.parametrize("path", TRAIL, ids=lambda p: p.name)
def test_bench_file_holds_benchmark_workloads_and_metrics(path):
    bench = json.loads(path.read_text())
    assert bench["environment"]
    assert bench["workloads"] and set(bench["workloads"]) <= WORKLOADS
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert pairs >= 1, name
        assert workload["metrics"] and set(workload["metrics"]) <= set(END_TO_END)
        for metric, entry in workload["metrics"].items():
            spec = END_TO_END[metric]
            assert (entry["unit"], entry["better"]) == (spec["unit"], spec["better"])
            for side in SIDES:
                stats = entry[side]
                assert len(stats["runs"]) == pairs, (name, metric, side)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric)
                quartiles = np.percentile(stats["runs"], [25, 50, 75]).tolist()
                assert [stats["q1"], stats["median"], stats["q3"]] == quartiles, \
                    (name, metric, side)
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (change - parent) > 0 for parent, change in
                       zip(entry["parent"]["runs"], entry["change"]["runs"]))
            assert entry["wins"] == wins, (name, metric)
        for side in SIDES:
            assert workload["failed_ops"][side] >= 0
            assert workload["digests"][side], (name, side)
        assert workload["failed_ops"]["change"] == 0, name
        assert workload["digests"]["change"] == workload["digests"]["parent"], name
        for layer, values in workload.get("layers", {}).items():
            assert layer in PER_LAYER, layer
            assert set(values) == set(SIDES)


CLAIMS = [path for path in TRAIL if "claim" in json.loads(path.read_text())]


@pytest.mark.parametrize("path", CLAIMS, ids=lambda p: p.name)
def test_a_claimed_gain_wins_its_pairs(path):
    """The claimed workload and metric hold at least 10 pairs; the change
    wins at least 9 in 10 of them, and its median is better than the
    parent's by more than the parent's interquartile range."""
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    entry = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    pairs = len(entry["parent"]["runs"])
    assert pairs >= 10 and 10 * entry["wins"] >= 9 * pairs, (pairs, entry["wins"])
    sign = 1 if entry["better"] == "higher" else -1
    parent, change = entry["parent"], entry["change"]
    gain = sign * (change["median"] - parent["median"])
    assert gain > parent["q3"] - parent["q1"], (gain, parent["q1"], parent["q3"])


TIMED = [(path, key) for path in TRAIL
         for key, block in json.loads(path.read_text()).items()
         if key != "workloads" and isinstance(block, dict) and "runs" in
         block.get("parent", {})]


def test_the_trail_times_acceptance_criterion_5():
    assert any(key == "criterion_5" for _, key in TIMED)


@pytest.mark.parametrize("path, key", TIMED,
                         ids=[f"{p.name}-{k}" for p, k in TIMED])
def test_timings_outside_the_workloads_hold_their_runs(path, key):
    """A timing block outside ``"workloads"`` (a lower-is-better wall time,
    such as acceptance criterion 5's) holds alternating parent and change
    runs with their median, quartiles and wins, and the change printed
    what the parent printed."""
    block = json.loads(path.read_text())[key]
    assert block["command"] and block["unit"] == "s"
    pairs = len(block["parent"]["runs"])
    assert pairs >= 5 and len(block["change"]["runs"]) == pairs
    for side in SIDES:
        stats = block[side]
        quartiles = np.percentile(stats["runs"], [25, 50, 75]).tolist()
        assert [stats["q1"], stats["median"], stats["q3"]] == quartiles, side
    assert block["wins"] == sum(change < parent for parent, change in
                                zip(block["parent"]["runs"], block["change"]["runs"]))
    assert block["output_equal"] is True

"""Tests for the benchmark itself: the tracer's arithmetic, every workload end
to end at a tiny size, and every traced layer recording calls on the workload
meant to exercise it."""

from __future__ import annotations

import json
import statistics
import types
from pathlib import Path

import numpy as np
import pytest

import run

run.import_library()

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "lifelong_tucker4": lambda: workloads.Lifelong(
        1, "tucker4", n_tasks=2, train_episodes=4, epochs=1, test_episodes=3),
    "lifelong_lora": lambda: workloads.Lifelong(
        1, "lora", n_tasks=2, train_episodes=4, epochs=1, test_episodes=3),
    "eval_retrieval": lambda: workloads.EvalRetrieval(
        1, eval_episodes=3, n_tasks=3, train_episodes=4),
    "degrade_batch": lambda: workloads.DegradeBatch(1, n_images=2, shape=(12, 16)),
}


@pytest.fixture(autouse=True)
def one_set_up_per_cycle(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)


def test_tiny_workloads_cover_every_benchmark_workload():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layers.metric_specs()
    assert len(SPEC["per_layer"]) <= 128


def test_self_time_on_nested_fake_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.inner = lambda: mod.leaf()

    def outer():
        mod.inner()
        mod.inner()

    mod.outer = outer
    tracer.span(mod, "outer", "outer")
    tracer.span(mod, "inner", "inner")
    tracer.count(mod, "leaf", "leaf")
    mod.outer()

    assert tracer.spans == [["outer", 0.0, 10.0, -1], ["inner", 1.0, 3.0, 0],
                            ["inner", 4.0, 7.0, 0]]
    assert tracer.self_times() == [5.0, 2.0, 3.0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 5.0, "total_s": 10.0,
                                "p50_us": 10e6}
    assert summary["inner"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0,
                                "p50_us": 2.5e6}
    assert summary["leaf"] == {"calls": 2}
    assert tracer.counted["leaf"] == [1, 2]
    assert tracer.counted_under("leaf", {"outer"}) == 2
    assert tracer.counted_under("leaf", {"inner"}) == 2
    assert tracer.counted_under("leaf", {"other"}) == 0
    tracer.restore()
    assert mod.outer is outer


def test_restore_puts_back_static_and_class_methods():
    class Thing:
        @staticmethod
        def make(x):
            return x + 1

        @classmethod
        def build(cls, x):
            return (cls, x)

    raw = dict(vars(Thing))
    tracer = Tracer()
    tracer.span(Thing, "make", "make")
    tracer.span(Thing, "build", "build")
    assert Thing.make(1) == 2 and Thing.build(3) == (Thing, 3)
    assert [s[0] for s in tracer.spans] == ["make", "build"]
    tracer.restore()
    assert vars(Thing)["make"] is raw["make"]
    assert vars(Thing)["build"] is raw["build"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end(name, tmp_path):
    workload = TINY[name]()
    result, record, tracer = harness.run_workload(workload, 0.0, False, tmp_path)
    assert tracer is None
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, record["passes"]
    assert result["attempted"] == workload.ops_per_pass * len(record["passes"]) > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert all(p["digest"] for p in record["passes"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_records_every_layer_of_its_workload(name, tmp_path):
    from tucker_adapters import pipeline, training

    original = training.total_loss_and_grads
    result, record, tracer = harness.run_workload(TINY[name](), 0.0, True, tmp_path)
    assert result["correct"], record["passes"]
    assert [p["traced"] for p in record["passes"]][:2] == [False, True]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    silent = [layers.layer_name(module, qualname)
              for module, qualname, meant_for in layers.SPANNED + layers.COUNTED
              if name in meant_for
              and metrics[f"{layers.layer_name(module, qualname)}.calls"] == 0]
    assert silent == []
    # the shims are gone, including the ones on names bound by `from x import f`
    assert pipeline.total_loss_and_grads is training.total_loss_and_grads is original


def test_traced_ratios_on_lifelong_tucker4(tmp_path):
    result, _, _ = harness.run_workload(TINY["lifelong_tucker4"](), 0.0, True, tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.0 < metrics["tasks.episode_draw_ratio"] <= 1.0
    assert 0.0 <= metrics["retrieval.hit_ratio"] <= 1.0
    assert metrics["adapters.blocks_per_step"] > 0
    # one optimizer step per minibatch: 2 tasks x 1 epoch x 4 episodes / batch 2
    assert metrics["training.adam_step.calls"] == 4


def test_failing_pass_counts_as_failed_ops(tmp_path, monkeypatch):
    from tucker_adapters import degrade

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(degrade, "degrade_directory", broken)
    workload = TINY["degrade_batch"]()
    result, record, _ = harness.run_workload(workload, 0.0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == \
        workload.ops_per_pass * len(record["passes"])
    assert "RuntimeError: injected" in record["passes"][0]["failures"]


def test_out_of_range_operator_output_counts_as_failed(tmp_path, monkeypatch):
    from tucker_adapters import degrade

    original = degrade.low_light
    # save_image clips, so only the check on the returned floats can see this
    monkeypatch.setattr(degrade, "low_light", lambda *a, **k: 2.0 * original(*a, **k))
    result, record, _ = harness.run_workload(
        TINY["degrade_batch"](), 0.0, False, tmp_path)
    assert not result["correct"]
    assert record["passes"][0]["failures"] == [
        "lowlight/view000.ppm: low_light returned values outside [0, 1]"]


def test_repeated_set_up_is_sampled_until_the_minimum(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.05)
    result, record, _ = harness.run_workload(
        TINY["degrade_batch"](), 0.0, False, tmp_path)
    assert result["correct"]
    assert len(record["setup_s"]) > len(record["passes"]) == harness.MIN_CYCLES
    assert result["metrics"]["setup_s"]["value"] == statistics.median(record["setup_s"])


def test_frozen_row_check_flags_only_rows_of_other_tasks():
    from tucker_adapters.adapters import Selection
    from tucker_adapters.config import ExperimentConfig
    from tucker_adapters.pipeline import init_state
    from tucker_adapters.tasks import World

    cfg = ExperimentConfig(seed=1)
    world = World(cfg.world_config())
    before = init_state(cfg, world).adapters
    after = init_state(cfg, world).adapters
    sel = Selection(scene=2, env=1, task=0)
    after[0].scene_experts[2] += 1.0      # the current task's row may move
    after[1].core += 1.0                  # shared blocks may move
    assert workloads._frozen_row_failures(0, before, after, sel) == []
    after[1].env_experts[3, 0] = np.nextafter(after[1].env_experts[3, 0], 1.0)
    assert workloads._frozen_row_failures(0, before, after, sel) == [
        "task 0: frozen row L1:env_experts[3] changed"]

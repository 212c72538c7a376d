"""End-to-end pipeline contracts: determinism, resume, reference semantics,
expert isolation, and consolidation orderings."""

import json

import numpy as np
import pytest

from tucker_adapters import pipeline
from tucker_adapters.adapters import LoraAdapter
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.metrics import EpisodeRecord
from tucker_adapters.pipeline import (
    delta_provider,
    evaluate_task,
    final_state,
    init_state,
    run_eval,
    run_gradcheck,
    run_reference,
    run_training,
    task_dir,
    train_task,
)
from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.tasks import World, gen_episode, gen_stream
from tucker_adapters.training import gram_penalty_and_row_grad


def tiny_config(**kw):
    base = dict(n_scenes=3, n_envs=2, n_tasks=3, d_f=16, hidden=12, horizon=8,
                train_episodes=12, test_episodes=8, epochs=4, lr=3e-3, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


def checkpoint_bytes(run_dir, t):
    d = task_dir(run_dir, t)
    return {p.name: p.read_bytes() for p in sorted(d.glob("*.npz"))}


# ---------------------------------------------------------------------------
# Determinism and resume
# ---------------------------------------------------------------------------

def test_bitwise_identical_reruns(tmp_path):
    cfg = tiny_config()
    run_training(cfg, tmp_path / "a")
    run_training(tiny_config(), tmp_path / "b")
    assert checkpoint_bytes(tmp_path / "a", 2) == checkpoint_bytes(tmp_path / "b", 2)


def test_interrupt_and_resume_equals_uninterrupted(tmp_path):
    cfg = tiny_config()
    run_training(cfg, tmp_path / "full")

    class Stop(Exception):
        pass

    done = []

    def interrupt(msg):
        done.append(msg)
        if len(done) == 2:
            raise Stop()

    with pytest.raises(Stop):
        run_training(tiny_config(), tmp_path / "part", progress=interrupt)
    assert (task_dir(tmp_path / "part", 1) / "complete.marker").exists()
    assert not (task_dir(tmp_path / "part", 2) / "complete.marker").exists()
    run_training(tiny_config(), tmp_path / "part")  # resume
    assert (checkpoint_bytes(tmp_path / "full", 2)
            == checkpoint_bytes(tmp_path / "part", 2))
    # reference caches agree too
    full_ref = json.loads((tmp_path / "full" / "reference.json").read_text())
    part_ref = json.loads((tmp_path / "part" / "reference.json").read_text())
    assert full_ref["values"] == part_ref["values"]


def test_resume_after_failure_past_the_log_write(tmp_path, monkeypatch):
    run_training(tiny_config(), tmp_path / "full")
    save_state = pipeline.save_state
    calls = []

    def fail_second(state, directory):
        calls.append(directory)
        if len(calls) == 2:   # task 1 has logged its epochs but is not sealed
            raise OSError("injected")
        save_state(state, directory)

    monkeypatch.setattr(pipeline, "save_state", fail_second)
    with pytest.raises(OSError, match="injected"):
        run_training(tiny_config(), tmp_path / "part")
    monkeypatch.setattr(pipeline, "save_state", save_state)
    run_training(tiny_config(), tmp_path / "part")

    def log(run_dir):
        lines = (run_dir / "train_log.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                for line in lines]

    cfg = tiny_config()
    assert [(r["task"], r["epoch"]) for r in log(tmp_path / "part")] == [
        (t, e) for t in range(cfg.n_tasks) for e in range(cfg.epochs)]
    assert log(tmp_path / "part") == log(tmp_path / "full")
    assert (checkpoint_bytes(tmp_path / "full", 2)
            == checkpoint_bytes(tmp_path / "part", 2))
    for name in ("reference.json", "manifest.json"):
        assert ((tmp_path / "full" / name).read_text()
                == (tmp_path / "part" / name).read_text())
    assert not list((tmp_path / "part").glob("*.tmp"))


def test_run_dir_rejects_other_config(tmp_path):
    run_training(tiny_config(), tmp_path / "r")
    with pytest.raises(ValueError, match="different config"):
        run_training(tiny_config(seed=10), tmp_path / "r")


def test_foreign_config_cannot_resume_an_unfinished_run(tmp_path, monkeypatch):
    save_state = pipeline.save_state

    def seal_then_fail(state, directory):
        save_state(state, directory)
        raise OSError("injected")

    monkeypatch.setattr(pipeline, "save_state", seal_then_fail)
    with pytest.raises(OSError, match="injected"):
        run_training(tiny_config(), tmp_path / "r")
    monkeypatch.setattr(pipeline, "save_state", save_state)
    assert (task_dir(tmp_path / "r", 0) / "complete.marker").exists()
    with pytest.raises(ValueError, match="different config"):
        run_training(tiny_config(lr=1e-3), tmp_path / "r")


def test_run_directory_holds_only_what_is_read(tmp_path):
    run_training(tiny_config(), tmp_path / "r")
    checkpoint = ("adapter_L0.npz", "adapter_L1.npz", "fisher.npz",
                  "snapshot.npz", "store.npz", "state.json", "complete.marker")
    files = {p.relative_to(tmp_path / "r").as_posix()
             for p in (tmp_path / "r").rglob("*") if p.is_file()}
    assert files == {"config.json", "manifest.json", "train_log.jsonl",
                     "reference.json"} | {f"task_{t:03d}/{name}"
                                          for t in range(3) for name in checkpoint}
    assert not list((tmp_path / "r").rglob("*.tmp"))


def test_divergence_stops_before_the_task_is_sealed(tmp_path):
    with pytest.raises(FloatingPointError,
                       match=r"task 0 \(scene \d+, env \d+\), epoch 0: "
                             r"mean task_loss is nan"):
        run_training(tiny_config(n_tasks=2, epochs=2, lr=1e300), tmp_path / "r")
    assert not list((tmp_path / "r").glob("task_*/complete.marker"))
    assert not (tmp_path / "r" / "train_log.jsonl").exists()


def test_single_task_stream(tmp_path):
    cfg = tiny_config(n_tasks=1)
    run_training(cfg, tmp_path / "one")
    assert (task_dir(tmp_path / "one", 0) / "complete.marker").exists()
    scores = run_eval(cfg, tmp_path / "one")
    assert len(scores) == 1


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------

def test_prefix_reference_equals_short_run(tmp_path):
    cfg3 = tiny_config()
    run_training(cfg3, tmp_path / "r3")
    ref = json.loads((tmp_path / "r3" / "reference.json").read_text())["values"]

    cfg1 = tiny_config(n_tasks=1)
    run_training(cfg1, tmp_path / "r1")
    scores = run_eval(cfg1, tmp_path / "r1")
    assert scores[0].sr == pytest.approx(ref["0"]["sr"])
    assert scores[0].spl == pytest.approx(ref["0"]["spl"])
    assert scores[0].osr == pytest.approx(ref["0"]["osr"])


def test_reference_cache_hit_and_corruption(tmp_path):
    cfg = tiny_config()
    values = run_reference(cfg, tmp_path / "r")
    assert len(values) == cfg.n_tasks
    marker = task_dir(tmp_path / "r", 0) / "complete.marker"
    stamp = marker.stat().st_mtime_ns
    values2 = run_reference(tiny_config(), tmp_path / "r")  # cache hit
    assert values2 == values
    assert marker.stat().st_mtime_ns == stamp  # nothing retrained
    (tmp_path / "r" / "reference.json").write_text("{broken")
    with pytest.warns(UserWarning, match="corrupt"):
        values3 = run_reference(tiny_config(), tmp_path / "r")
    assert {k: v for k, v in values3.items()} == values


def test_eval_attaches_reference_and_rates(tmp_path):
    cfg = tiny_config()
    run_training(cfg, tmp_path / "r")
    scores = run_eval(cfg, tmp_path / "r")
    assert all(s.m_sr is not None for s in scores)


# ---------------------------------------------------------------------------
# Expert isolation and consolidation orderings
# ---------------------------------------------------------------------------

def test_other_expert_rows_bitwise_frozen():
    cfg = tiny_config()
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, 2, cfg.seed)
    state = init_state(cfg, world)
    train_task(state, world, stream[0])
    before = [{k: v.copy() for k, v in ad.blocks().items()}
              for ad in state.adapters]
    task = stream[1]
    train_task(state, world, task)
    for ad, snap in zip(state.adapters, before):
        s_idx = task.scene
        e_idx = task.env
        scene_rows = ad.blocks()["scene_experts"]
        env_rows = ad.blocks()["env_experts"]
        for i in range(scene_rows.shape[0]):
            if i != s_idx:
                assert np.array_equal(scene_rows[i], snap["scene_experts"][i])
        for j in range(env_rows.shape[0]):
            if j != e_idx:
                assert np.array_equal(env_rows[j], snap["env_experts"][j])


def test_duplicate_pair_rejected():
    cfg = tiny_config()
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, 1, cfg.seed)
    state = init_state(cfg, world)
    train_task(state, world, stream[0])
    with pytest.raises(ValueError, match="already trained"):
        train_task(state, world, stream[0])


def test_capacity_exceeded_rejected():
    from tucker_adapters.tasks import TaskDescriptor

    cfg = tiny_config()
    world = World(cfg.world_config())
    state = init_state(cfg, world)
    with pytest.raises(ValueError, match="capacity"):
        train_task(state, world, TaskDescriptor(index=0, scene=99, env=0))


def test_orthogonality_shrinks_gram_mass():
    # with lam3 on and a novel scene, off-diagonal Gram mass ends smaller
    cfg_on = tiny_config(lam1=0.0, lam2=0.0, lam3=0.1)
    cfg_off = tiny_config(lam1=0.0, lam2=0.0, lam3=0.0)
    masses = {}
    for tag, cfg in (("on", cfg_on), ("off", cfg_off)):
        world = World(cfg.world_config())
        stream = gen_stream(cfg.n_scenes, cfg.n_envs, 3, cfg.seed)
        state = init_state(cfg, world)
        for task in stream:
            train_task(state, world, task)
        masses[tag] = sum(gram_penalty_and_row_grad(ad.scene_experts, 0)[0]
                          for ad in state.adapters)
    assert masses["on"] < masses["off"]


def test_consistency_limits_revisit_drift():
    # find a stream position whose scene was already visited, then compare
    # that expert row's drift with and without the consistency weight
    cfg = tiny_config(n_tasks=4)
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, 4, cfg.seed)
    revisit = None
    seen = set()
    for task in stream:
        if task.scene in seen:
            revisit = task
            break
        seen.add(task.scene)
    assert revisit is not None, "stream should revisit a scene"

    drifts = {}
    for tag, lam2 in (("on", 0.5), ("off", 0.0)):
        cfg_i = tiny_config(n_tasks=4, lam1=0.0, lam2=lam2, lam3=0.0)
        world_i = World(cfg_i.world_config())
        state = init_state(cfg_i, world_i)
        row_before = None
        for task in stream:
            if task.index == revisit.index:
                row_before = [ad.scene_experts[task.scene].copy()
                              for ad in state.adapters]
            train_task(state, world_i, task)
            if task.index == revisit.index:
                drifts[tag] = sum(
                    float(np.linalg.norm(ad.scene_experts[task.scene] - rb))
                    for ad, rb in zip(state.adapters, row_before))
                break
    assert drifts["on"] < drifts["off"]


# ---------------------------------------------------------------------------
# Evaluation paths
# ---------------------------------------------------------------------------

def test_oracle_eval_equals_retrieved_when_retrieval_perfect(tmp_path):
    cfg = tiny_config(feature_noise=0.05, test_episodes=10)
    run_training(cfg, tmp_path / "r")
    world, state = final_state(cfg, tmp_path / "r")
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed)
    # verify retrieval is perfect on these held-out queries, then compare
    for task in stream:
        for i in range(cfg.test_episodes):
            ep = gen_episode(world, task, i, split=1)
            assert state.store.search(ep.obs[0]) == (task.scene, task.env)
    retrieved = run_eval(cfg, tmp_path / "r", oracle_ids=False)
    oracle = run_eval(cfg, tmp_path / "r", oracle_ids=True)
    for a, b in zip(retrieved, oracle):
        assert (a.sr, a.spl, a.osr) == (b.sr, b.spl, b.osr)


def test_empty_eval_rejected():
    cfg = tiny_config()
    world = World(cfg.world_config())
    state = init_state(cfg, world)
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, 1, cfg.seed)
    with pytest.raises(ValueError, match="at least one"):
        evaluate_task(world, delta_provider(state), FeatureStore(cfg.d_f),
                      stream[0], 0, cfg)


def test_eval_without_checkpoint_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="run training first"):
        run_eval(tiny_config(), tmp_path / "missing")


# ---------------------------------------------------------------------------
# All adapter kinds train and evaluate end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,extra", [
    ("tucker4", {}),
    ("tucker3", {}),
    ("tucker5", {"n_instr": 2, "ranks": (2, 2, 2, 3, 3)}),
    ("lora", {"lam1": 0.0, "lam2": 0.0, "lam3": 0.0}),
    ("lora", {}),                      # EWC-on-LoRA composition
    ("lora_per_task", {"lam1": 0.0, "lam2": 0.0, "lam3": 0.0}),
    ("moe", {}),
    ("abc", {}),
    ("lora_per_task", {}),             # consolidation terms with no shared block
])
def test_all_kinds_end_to_end(tmp_path, kind, extra):
    cfg = tiny_config(adapter_kind=kind, n_tasks=2, **extra)
    run_training(cfg, tmp_path / "r")
    scores = run_eval(cfg, tmp_path / "r")
    assert len(scores) == 2
    for s in scores:
        assert 0.0 <= s.sr <= 1.0 and 0.0 <= s.osr <= 1.0


def test_per_task_lookup_stays_on_trained_pairs(tmp_path):
    # noisy features make the two-step search pair a scene with an
    # environment it was never trained with
    cfg = ExperimentConfig(adapter_kind="lora_per_task", n_tasks=6,
                           feature_noise=3.0, epochs=1)
    run_training(cfg, tmp_path / "r")
    scores = run_eval(cfg, tmp_path / "r")
    assert len(scores) == 6


def test_task_experts_draw_from_their_own_task_keys():
    # expert t of layer l is the LoRA drawn from [seed, 23, 1 + t, l]
    cfg = tiny_config(adapter_kind="lora_per_task")
    world = World(cfg.world_config())
    stack = pipeline.build_adapter_stack(cfg, world.backbone.layer_dims)
    for l, ((a, b), ad) in enumerate(zip(world.backbone.layer_dims, stack)):
        assert ad.downs.shape[0] == ad.ups.shape[0] == cfg.n_tasks
        for t in range(cfg.n_tasks):
            rng = np.random.default_rng([cfg.seed, pipeline._TAG_ADAPTER, 1 + t, l])
            lora = LoraAdapter.init(a, b, cfg.lora_rank, rng)
            assert ad.downs[t].tobytes() == lora.down.tobytes()
            assert ad.ups[t].tobytes() == lora.up.tobytes()


def test_checkpoint_of_another_kind_is_refused(tmp_path):
    # a lora_per_task run directory with 'lora' adapters in adapter_L*.npz
    run_training(tiny_config(adapter_kind="lora", n_tasks=1), tmp_path / "r")
    per_task = tiny_config(adapter_kind="lora_per_task", n_tasks=1)
    with pytest.raises(ValueError, match=r"adapter_L0\.npz holds a 'lora' "
                                         r"adapter, the config asks for "
                                         r"'lora_per_task'"):
        run_eval(per_task, tmp_path / "r")


def test_gradcheck_on_default_toy_config():
    report = run_gradcheck(tiny_config(), n_episodes=2)
    assert report, "gradcheck should cover at least one block"
    for name, err in report.items():
        assert err < 1e-4, f"{name}: {err}"


def test_training_log_structure(tmp_path):
    run_training(tiny_config(), tmp_path / "r")
    lines = (tmp_path / "r" / "train_log.jsonl").read_text().splitlines()
    cfg = tiny_config()
    assert len(lines) == cfg.n_tasks * cfg.epochs
    rec = json.loads(lines[0])
    for key in ("task", "epoch", "task_loss", "ewc", "consistency",
                "orthogonality", "total", "wall_time"):
        assert key in rec
    assert [json.loads(line)["task"] for line in lines] == [
        t for t in range(cfg.n_tasks) for _ in range(cfg.epochs)]


def test_regularizers_reduce_first_task_drift():
    """Two-task runs: with the consolidation weights on, the first task's
    re-evaluation loss after the second task is lower."""
    from tucker_adapters.adapters import Selection
    from tucker_adapters.tasks import forward_logits
    from tucker_adapters.training import action_nll, batch_arrays

    results = {}
    for tag, lams in (("on", (0.2, 0.2, 0.1)), ("off", (0.0, 0.0, 0.0))):
        cfg = ExperimentConfig(n_tasks=2, lam1=lams[0], lam2=lams[1],
                               lam3=lams[2], seed=5)
        world = World(cfg.world_config())
        stream = gen_stream(cfg.n_scenes, cfg.n_envs, 2, cfg.seed)
        state = init_state(cfg, world)
        for task in stream:
            train_task(state, world, task)
        first = stream[0]
        eps = [gen_episode(world, first, i, split=1) for i in range(40)]
        x, y = batch_arrays(eps)
        sel = Selection(scene=first.scene, env=first.env, task=0)
        deltas = [ad.delta(sel) for ad in state.adapters]
        results[tag] = action_nll(forward_logits(world.backbone, deltas, x), y)
    assert results["on"] < results["off"]

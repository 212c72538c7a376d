"""End-to-end pipeline contracts: determinism, resume, reference semantics,
expert isolation, and consolidation orderings."""

import ast
import dataclasses
import json
import math
import os
import re
import shutil
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from tucker_adapters import config, pipeline
from tucker_adapters.adapters import (
    ADAPTER_KINDS,
    AdapterBase,
    LoraAdapter,
    Selection,
    audit_task,
    block_key,
)
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.metrics import EpisodeRecord
from tucker_adapters.pipeline import (
    evaluate_task,
    init_state,
    run_eval,
    run_reference,
    run_training,
    train_task,
)
from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.rundir import final_state, load_state, task_dir
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


class Crash(Exception):
    pass


def crash_config():
    return tiny_config(epochs=1, train_episodes=4, test_episodes=2)


def count_writes(mp, crash_at=0):
    """Count every filesystem write of a run: ``np.savez``,
    ``Path.write_text``, the training-log append and ``os.replace``. The
    ``crash_at``-th write raises Crash; a ``write_text`` writes half its
    text first, as a write cut off partway would."""
    count = [0]

    def due():
        count[0] += 1
        return count[0] == crash_at

    savez, write_text, replace, open_ = np.savez, Path.write_text, os.replace, Path.open

    def faulty_savez(*args, **kwargs):
        if due():
            raise Crash("np.savez")
        savez(*args, **kwargs)

    def faulty_write_text(path, data, *args, **kwargs):
        if due():
            write_text(path, data[:len(data) // 2], *args, **kwargs)
            raise Crash(f"write_text {path.name}")
        return write_text(path, data, *args, **kwargs)

    def faulty_replace(*args, **kwargs):
        if due():
            raise Crash("os.replace")
        replace(*args, **kwargs)

    def faulty_open(path, mode="r", *args, **kwargs):
        if "a" in mode and due():
            raise Crash(f"append to {path.name}")
        return open_(path, mode, *args, **kwargs)

    mp.setattr(np, "savez", faulty_savez)
    mp.setattr(Path, "write_text", faulty_write_text)
    mp.setattr(os, "replace", faulty_replace)
    mp.setattr(Path, "open", faulty_open)
    return count


def run_dir_contents(run_dir):
    """Every file of the run directory: the training log less its wall
    times, an npz file by its arrays, since its zip entries are stamped with
    the time of writing, a completion marker by its existence, the only
    thing read of it, and any other file by its bytes."""
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        name = path.relative_to(run_dir).as_posix()
        if path.suffix == ".npz":
            with np.load(path) as data:
                out[name] = {key: (data[key].dtype.str, data[key].shape,
                                   data[key].tobytes()) for key in data.files}
        elif path.name == "complete.marker":
            out[name] = "exists"
        elif path.name == "train_log.jsonl":
            lines = path.read_text().splitlines()
            out[name] = [{k: v for k, v in json.loads(line).items()
                          if k != "wall_time"} for line in lines]
        else:
            out[name] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The contents of an uninterrupted crash_config run and its write count."""
    run_dir = tmp_path_factory.mktemp("uninterrupted")
    with pytest.MonkeyPatch.context() as mp:
        count = count_writes(mp)
        run_training(crash_config(), run_dir)
    return run_dir_contents(run_dir), count[0]


@settings(max_examples=40)
@given(data=st.data())
def test_crash_at_any_write_resumes_to_the_uninterrupted_run(
        uninterrupted, tmp_path_factory, data):
    contents, n_writes = uninterrupted
    crash_at = data.draw(st.integers(1, n_writes), label="crash_at")
    run_dir = tmp_path_factory.mktemp("crashed")
    with pytest.MonkeyPatch.context() as mp:
        count_writes(mp, crash_at)
        with pytest.raises(Crash):
            run_training(crash_config(), run_dir)
    # the file a user passes to --config is never left half written
    config = run_dir / "config.json"
    assert not config.exists() or ExperimentConfig.from_file(config) == crash_config()
    run_training(crash_config(), run_dir)
    assert run_dir_contents(run_dir) == contents
    assert not list(run_dir.rglob("*.tmp"))


@st.composite
def lifelong_configs(draw, kind):
    """Tiny configs of adapter kind ``kind``, each consolidation weight
    either 0 or not and omega at either end; the world's floats keep their
    defaults."""
    n_scenes, n_envs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lam = st.one_of(st.just(0.0), st.floats(0.05, 0.3))
    small = st.integers(1, 3)
    return ExperimentConfig(
        adapter_kind=kind, n_scenes=n_scenes, n_envs=n_envs,
        n_tasks=draw(st.integers(1, min(3, n_scenes * n_envs))),
        n_instr=draw(st.integers(kind == "tucker5", 2)),
        ranks=tuple(draw(st.lists(small, min_size=5, max_size=5))),
        lora_rank=draw(small), moe_rank=draw(small),
        abc_rank_base=draw(small), abc_rank_mid=draw(small),
        lam1=draw(lam), lam2=draw(lam), lam3=draw(lam),
        omega=draw(st.sampled_from([0.0, 1.0])),
        train_episodes=draw(st.integers(1, 4)), test_episodes=2,
        epochs=draw(st.integers(1, 2)), batch_size=draw(small),
        d_f=16, hidden=12, horizon=8, seed=draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("kind", sorted(ADAPTER_KINDS))
@settings(max_examples=12)
@given(data=st.data())
def test_lifelong_invariants_hold_on_drawn_configs(kind, data):
    """Each task changes no expert row but its own, stores a Fisher over
    exactly the shared blocks, eval with oracle ids scores as eval with
    retrieval when every held-out query retrieves its own pair, and a run
    resumed after its last ``k`` task checkpoints were deleted ends bitwise
    as it was."""
    cfg = data.draw(lifelong_configs(kind), label="cfg")
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    before = init_state(cfg, world).adapters
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        try:
            run_training(cfg, run_dir)
        except RuntimeError as exc:
            # a world where some episode cannot be drawn is a defect of its
            # own, not one of the invariants checked here
            if "could not draw a moving episode" not in str(exc):
                raise
            reject()
        for t, task in enumerate(stream):
            checkpoint = task_dir(run_dir, t)
            after = [AdapterBase.load(checkpoint / f"adapter_L{l}.npz")
                     for l in range(len(before))]
            sel = Selection(task.scene, task.env, task.instr, t)
            assert audit_task(before, after, sel)["frozen_changed"] == [], t
            with np.load(checkpoint / "fisher.npz") as fisher:
                assert {key: fisher[key].shape for key in fisher.files} == {
                    block_key(l, name): getattr(ad, name).shape
                    for l, ad in enumerate(after) for name in ad.shared_names}
            before = after
        # criterion 7 generalized: the final store retrieves each held-out
        # first observation's own pair, among trained pairs for kinds whose
        # experts are their task's, so oracle ids change no score
        _, _, state = final_state(cfg, run_dir)
        pairs = set(state.pair_to_task) if state.adapters[0].pairs_only else None
        if all(state.store.search(np.stack([ep.obs[0] for ep in gen_episode(
                world, task, range(cfg.test_episodes), split=1)]), pairs)
               == [(task.scene, task.env)] * cfg.test_episodes for task in stream):
            for task in stream:
                assert score_bits([evaluate_task(
                    world, state, task, cfg.test_episodes, oracle_ids=True)]) \
                    == score_bits([evaluate_task(world, state, task, cfg.test_episodes)])
        contents = run_dir_contents(run_dir)
        k = data.draw(st.integers(1, cfg.n_tasks), label="k")
        for t in range(cfg.n_tasks - k, cfg.n_tasks):
            shutil.rmtree(task_dir(run_dir, t))
        run_training(cfg, run_dir)
        assert run_dir_contents(run_dir) == contents


def test_first_transition_of_the_seed_1_default_stream(tmp_path):
    """The audit of task 1 of the seed-1 default stream, trained here as its
    first two tasks (same stream prefix and data), reads the baseline: the
    shared blocks move by 18.84, 57.6 % of their 32.72 norm, and no frozen
    row changes."""
    cfg = ExperimentConfig(seed=1, n_tasks=2)
    run_training(cfg, tmp_path, eval_each=False)
    before, after = ([AdapterBase.load(p) for p in sorted(
        task_dir(tmp_path, t).glob("adapter_L*.npz"))] for t in (0, 1))
    task = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed)[1]
    audit = audit_task(before, after, Selection(task.scene, task.env, task.instr, 1))
    assert audit["frozen_changed"] == []
    drift, norm = (math.hypot(*column) for column in zip(*audit["shared"].values()))
    assert (round(drift, 2), round(norm, 2), round(drift / norm, 3)) == (18.84, 32.72, 0.576)
    assert {key: round(d, 3) for key, (d, _) in audit["experts"].items()} == {
        "L0:scene_experts[3]": 0.215, "L0:env_experts[2]": 0.027,
        "L1:scene_experts[3]": 0.171, "L1:env_experts[2]": 0.011}


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


def test_checkpoints_without_a_manifest_are_refused(tmp_path):
    run_dir = tmp_path / "r"
    run_training(tiny_config(n_tasks=2), run_dir)
    (run_dir / "manifest.json").unlink()
    before = checkpoint_bytes(run_dir, 1)
    with pytest.raises(ValueError, match="no manifest.json") as raised:
        run_training(tiny_config(n_tasks=2, lam1=0.0), run_dir)
    assert str(run_dir) in str(raised.value)
    assert not (run_dir / "manifest.json").exists()
    assert checkpoint_bytes(run_dir, 1) == before


def test_run_directory_holds_only_what_is_read(tmp_path):
    run_training(tiny_config(), tmp_path / "r")
    checkpoint = ("adapter_L0.npz", "adapter_L1.npz", "fisher.npz",
                  "store.npz", "state.json", "complete.marker")
    files = {p.relative_to(tmp_path / "r").as_posix()
             for p in (tmp_path / "r").rglob("*") if p.is_file()}
    assert files == {"config.json", "manifest.json", "train_log.jsonl",
                     "reference.json"} | {f"task_{t:03d}/{name}"
                                          for t in range(3) for name in checkpoint}
    assert not list((tmp_path / "r").rglob("*.tmp"))


def test_state_and_store_files_record_the_trained_stream(tmp_path):
    cfg = tiny_config(n_instr=2)
    run_training(cfg, tmp_path / "r", eval_each=False)
    stream = json.loads((tmp_path / "r" / "manifest.json").read_text())["stream"]
    instr = [t.instr for t in gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks,
                                         cfg.seed, n_instr=cfg.n_instr)]
    scenes, envs = sorted({s for s, _ in stream}), sorted({e for _, e in stream})
    state = json.loads((task_dir(tmp_path / "r", 2) / "state.json").read_text())
    assert {key: state[key] for key in ("task_count", "seen_scenes", "seen_envs",
                                        "seen_instr", "seen_pairs",
                                        "pair_to_task")} == {
        "task_count": 3, "seen_scenes": scenes, "seen_envs": envs,
        "seen_instr": sorted(set(instr)), "seen_pairs": sorted(stream),
        "pair_to_task": sorted([s, e, t] for t, (s, e) in enumerate(stream))}
    with np.load(task_dir(tmp_path / "r", 2) / "store.npz") as data:
        assert sorted(data.files) == ["env_sums", "meta", "scene_sums"]
        meta = json.loads(str(data["meta"]))
        shapes = data["scene_sums"].shape, data["env_sums"].shape
    n = cfg.train_episodes
    assert meta == {
        "dim": cfg.d_f, "scene_ids": scenes, "env_ids": envs,
        "scene_counts": [n * sum(s == k for s, _ in stream) for k in scenes],
        "env_counts": [n * sum(e == k for _, e in stream) for k in envs]}
    assert shapes == ((len(scenes), cfg.d_f), (len(envs), cfg.d_f))


@pytest.mark.parametrize("kind", ["tucker4", "lora_per_task"])
def test_fisher_file_is_per_block(tmp_path, kind):
    """fisher.npz holds one array per shared block under its ``L{l}:{name}``
    key, layer by layer."""
    run_training(tiny_config(adapter_kind=kind, n_tasks=2, epochs=1), tmp_path / "r")
    last = task_dir(tmp_path / "r", 1)
    adapters = [AdapterBase.load(last / f"adapter_L{l}.npz") for l in range(2)]
    with np.load(last / "fisher.npz") as data:
        fisher = {k: data[k] for k in data.files}
    blocks = {f"L{l}:{name}": arr for l, ad in enumerate(adapters)
              for name, arr in ad.blocks().items()}
    assert list(fisher) == [f"L{l}:{name}" for l, ad in enumerate(adapters)
                            for name in ad.shared_names]
    assert all(fisher[k].shape == blocks[k].shape for k in fisher)


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
    written = (tmp_path / "r" / "reference.json").read_bytes()
    marker = task_dir(tmp_path / "r", 0) / "complete.marker"
    stamp = marker.stat().st_mtime_ns
    values2 = run_reference(tiny_config(), tmp_path / "r")  # cache hit
    assert values2 == values
    assert marker.stat().st_mtime_ns == stamp  # nothing retrained
    # unparsable, or JSON of the wrong shape: eval reports without
    # reference values and reference rebuilds them, each with a warning
    # that says so
    corrupted = r"reference\.json is corrupted \(.*\); "
    rebuilt = corrupted + "the missing tasks are rebuilt from their checkpoints$"
    good = json.loads(written)
    for text in ("{broken", "[]", '{"values": 5}', '{"values": []}',
                 '{"values": {"0": 1}}',
                 # out of range: SR and OSR lie in [0, 1], SPL in [0, inf)
                 '{"values": {"0": {"task": 0, "sr": 7, "spl": 0.5, "osr": 0.5}}}',
                 '{"values": {"0": {"task": 0, "sr": 0.5, "spl": -2.5, "osr": 0.5}}}',
                 '{"values": {"0": {"task": 0, "sr": 0.5, "spl": 0.5, "osr": 1.5}}}',
                 # another config's file, or entries that are not the stream's
                 json.dumps({**good, "config_hash": "deadbeef"}),
                 json.dumps({**good, "values": {**good["values"], "0": {
                     "task": 7, "scene": 99, "env": 42,
                     "sr": 0.5, "spl": 0.5, "osr": 0.5}}}),
                 json.dumps({**good, "values": {**good["values"],
                                                "7": good["values"]["0"]}})):
        (tmp_path / "r" / "reference.json").write_text(text)
        with pytest.warns(UserWarning, match=corrupted
                          + "eval reports without reference values$"):
            scores = run_eval(tiny_config(), tmp_path / "r")
        assert all(s.m_sr is None for s in scores), text
        with pytest.warns(UserWarning, match=rebuilt):
            assert run_reference(tiny_config(), tmp_path / "r") == values, text
        assert (tmp_path / "r" / "reference.json").read_bytes() == written, text
    # training the last task again, then scoring it from its live state and
    # the others from their checkpoints, writes the same bytes
    (task_dir(tmp_path / "r", cfg.n_tasks - 1) / "complete.marker").unlink()
    (tmp_path / "r" / "reference.json").write_text("{broken")
    with pytest.warns(UserWarning, match=rebuilt):
        run_training(tiny_config(), tmp_path / "r")
    assert (tmp_path / "r" / "reference.json").read_bytes() == written


def test_eval_attaches_reference_and_rates(tmp_path):
    cfg = tiny_config()
    run_training(cfg, tmp_path / "r")
    scores = run_eval(cfg, tmp_path / "r")
    assert all(s.m_sr is not None for s in scores)


# ---------------------------------------------------------------------------
# Expert isolation and consolidation orderings
# ---------------------------------------------------------------------------

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
    world, stream, state = final_state(cfg, tmp_path / "r")
    # verify retrieval is perfect on these held-out queries, then compare
    for task in stream:
        for ep in gen_episode(world, task, range(cfg.test_episodes), split=1):
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
        evaluate_task(world, state, stream[0], 0)


def test_eval_without_checkpoint_errors(tmp_path):
    marker = task_dir(tmp_path / "missing", 2) / "complete.marker"
    with pytest.raises(FileNotFoundError,
                       match=re.escape(f"{marker}; run training first")):
        run_eval(tiny_config(), tmp_path / "missing")


# ---------------------------------------------------------------------------
# Scoring on forked processes (the autouse fixture in conftest.py fails any
# test here that leaves a worker running or unreaped)
# ---------------------------------------------------------------------------

class WorkerError(Exception):
    pass


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """(config, run directory) of a finished 1-, 2- and 3-task run."""
    runs = {}
    for n_tasks in (1, 2, 3):
        cfg = tiny_config(n_tasks=n_tasks, epochs=1)
        run_dir = tmp_path_factory.mktemp(f"tasks{n_tasks}")
        run_training(cfg, run_dir)
        runs[n_tasks] = cfg, run_dir
    return runs


@pytest.fixture
def deadline():
    """Raise TimeoutError in a test still running after 60 s, in place of a
    hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def score_bits(scores):
    """Every field of every score, floats by their exact repr."""
    return [[repr(v) for v in dataclasses.astuple(s)] for s in scores]


@pytest.mark.parametrize("oracle_ids", [False, True])
@pytest.mark.parametrize("n_tasks", [1, 2, 3])
def test_forked_scores_are_bitwise_the_serial_ones(finished_runs, monkeypatch,
                                                    forks, n_tasks, oracle_ids):
    """Three CPUs fork one worker per task after the first; the host's own
    CPU count and one CPU, the serial loop, give the same bits."""
    cfg, run_dir = finished_runs[n_tasks]
    monkeypatch.setattr(config, "available_cpus", lambda: 3)
    forked = run_eval(cfg, run_dir, oracle_ids=oracle_ids)
    assert len(forks) == n_tasks - 1
    monkeypatch.setattr(config, "available_cpus", lambda: 1)
    serial = run_eval(cfg, run_dir, oracle_ids=oracle_ids)
    assert len(forks) == n_tasks - 1
    monkeypatch.undo()
    host = run_eval(cfg, run_dir, oracle_ids=oracle_ids)
    assert [s.task for s in serial] == list(range(n_tasks))
    assert all(s.m_sr is not None for s in serial)
    assert score_bits(forked) == score_bits(serial) == score_bits(host)


def test_forked_reference_rebuild_is_bitwise_the_serial_one(tmp_path, monkeypatch,
                                                          forks):
    """``reference`` on a run trained without eval after each task, and a
    fresh run trained with it, score all three tasks in one fan-out, one
    contiguous share per CPU: one, two and three CPUs write the same bytes,
    the fresh run replaces ``reference.json`` once, and every worker is
    reaped before the call returns."""
    cfg, run_dir = tiny_config(epochs=1), tmp_path / "r"
    run_training(cfg, run_dir, eval_each=False)
    replace, replaced = os.replace, []

    def counted_replace(src, dst):
        replaced.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", counted_replace)
    written = []
    for cpus in (1, 2, 3):
        (run_dir / "reference.json").unlink(missing_ok=True)
        monkeypatch.setattr(config, "available_cpus", lambda n=cpus: n)
        fresh = tmp_path / f"fresh{cpus}"
        for run in (lambda: run_reference(cfg, run_dir),
                    lambda: run_training(cfg, fresh)):
            before, replaced[:] = len(forks), []
            run()
            assert len(forks) - before == cpus - 1
            assert replaced.count("reference.json") == 1
            with pytest.raises(ChildProcessError):   # no child, running or unreaped
                os.waitpid(-1, os.WNOHANG)
        written += [(run_dir / "reference.json").read_bytes(),
                    (fresh / "reference.json").read_bytes()]
    assert len(set(written)) == 1


def test_a_workers_exception_reaches_the_caller(finished_runs, monkeypatch,
                                                deadline):
    cfg, run_dir = finished_runs[3]
    caller, evaluate = os.getpid(), pipeline.evaluate_task

    def fail_last(world, state, task, *args, **kwargs):
        if task.index == cfg.n_tasks - 1:
            where = "the caller" if os.getpid() == caller else "a worker"
            raise WorkerError(f"task {task.index} failed in {where}")
        return evaluate(world, state, task, *args, **kwargs)

    monkeypatch.setattr(config, "available_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "evaluate_task", fail_last)
    with pytest.raises(WorkerError, match="^task 2 failed in a worker$"):
        run_eval(cfg, run_dir)


def test_a_killed_worker_raises_instead_of_hanging(finished_runs, monkeypatch,
                                                   deadline):
    cfg, run_dir = finished_runs[3]
    caller, evaluate = os.getpid(), pipeline.evaluate_task

    def killed_in_a_worker(world, state, task, *args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return evaluate(world, state, task, *args, **kwargs)

    monkeypatch.setattr(config, "available_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "evaluate_task", killed_in_a_worker)
    with pytest.raises(ChildProcessError, match=r"^worker process \d+ ended "
                       rf"without a result \(killed by signal {signal.SIGKILL:d}\)$"):
        run_eval(cfg, run_dir)


def test_an_error_in_the_caller_kills_and_reaps_the_workers(finished_runs,
                                                          monkeypatch, deadline):
    cfg, run_dir = finished_runs[3]
    caller = os.getpid()

    def fail_in_the_caller(world, state, task, *args, **kwargs):
        if os.getpid() == caller:
            raise WorkerError("the caller's share failed")
        time.sleep(300)   # past the deadline, unless the worker is killed

    monkeypatch.setattr(config, "available_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "evaluate_task", fail_in_the_caller)
    with pytest.raises(WorkerError, match="^the caller's share failed$"):
        run_eval(cfg, run_dir)


def test_the_library_has_one_fan_out():
    """No module of the package imports a thread or process pool:
    `config.forked_map` is the one way it runs work in parallel."""
    banned = {"threading", "concurrent", "multiprocessing"}
    for path in sorted(Path(pipeline.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not banned & {n.split(".")[0] for n in names}, \
                f"{path.name}:{node.lineno} imports {names}"


def test_only_rundir_names_the_run_directory_files():
    """No module of the package but `rundir` holds a string constant that
    names a file of a run directory; ``task_`` counts as the stem of a task
    directory, followed by a digit, a glob or nothing (``task_loss`` is a
    log key)."""
    names = {"config.json", "train_log.jsonl", "reference.json", "complete.marker",
             "state.json", "fisher.npz", "store.npz"}
    pattern = re.compile(r"adapter_L|task_(\d|\*|$)")
    for path in sorted(Path(pipeline.__file__).parent.rglob("*.py")):
        if path.name == "rundir.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in names and not pattern.match(node.value), \
                    f"{path.name}:{node.lineno} names {node.value!r}"


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
    # 'lora' adapters in adapter_L*.npz, loaded for a lora_per_task config
    run_training(tiny_config(adapter_kind="lora", n_tasks=1), tmp_path / "r")
    per_task = tiny_config(adapter_kind="lora_per_task", n_tasks=1)
    n_layers = len(World(per_task.world_config()).backbone.layer_dims)
    with pytest.raises(ValueError, match=r"adapter_L0\.npz holds a 'lora' "
                                         r"adapter, the config asks for "
                                         r"'lora_per_task'"):
        load_state(per_task, task_dir(tmp_path / "r", 0), n_layers)


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
    from tucker_adapters.training import batch_arrays, softmax_nll

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
        eps = gen_episode(world, first, range(40), split=1)
        x, y = batch_arrays(eps)
        sel = Selection(scene=first.scene, env=first.env, task=0)
        deltas = [ad.delta(sel) for ad in state.adapters]
        results[tag] = softmax_nll(forward_logits(world.backbone, deltas, x), y)[0]
    assert results["on"] < results["off"]

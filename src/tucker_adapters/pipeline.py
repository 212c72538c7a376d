"""Lifelong-learning pipeline: sequential task training, task-agnostic
evaluation, reference runs, and resumable checkpointing.

Per task the trainer (i) inherits shared blocks and any previously learned
expert slices by construction (the same adapters persist across tasks),
(ii) estimates Fisher weights on the leading fraction of the task's data and
folds them into a running average, (iii) runs the epoch/minibatch loop over
the combined objective with non-current experts frozen, and (iv) snapshots
parameters and stores retrieval features for inference.

Every random draw is keyed by (config seed, fixed tag, task index, ...), so
an interrupted run resumed from its last complete task checkpoint is
bitwise-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adapters import (
    ADAPTER_KINDS,
    AdapterBase,
    Selection,
    pack_layers,
    unpack_layers,
)
from .config import ExperimentConfig
from .metrics import EpisodeRecord, TaskScore, score_task
from .retrieval import FeatureStore
from .tasks import (
    STOP,
    SyntheticEpisode,
    TaskDescriptor,
    World,
    forward_logits,
    gen_episode,
    gen_stream,
    gen_task_data,
    rollout_positions,
)
from .training import (
    AdamState,
    adam_step,
    batch_arrays,
    build_plan,
    fisher_ema,
    fisher_estimate,
    total_loss_and_grads,
)

_TAG_ADAPTER, _TAG_TRAIN = 23, 29


def build_adapter_stack(cfg: ExperimentConfig,
                        layer_dims: list[tuple[int, int]]) -> list[AdapterBase]:
    """One adapter per backbone layer; draw d of layer l comes from
    ``default_rng([seed, _TAG_ADAPTER, d, l])``."""
    cls = ADAPTER_KINDS[cfg.adapter_kind]
    return [cls.from_config(cfg, a, b, lambda draw, l=l: np.random.default_rng(
                [cfg.seed, _TAG_ADAPTER, draw, l]))
            for l, (a, b) in enumerate(layer_dims)]


@dataclass
class LifelongState:
    """Everything the sequential trainer carries between tasks."""

    cfg: ExperimentConfig
    adapters: list[AdapterBase]
    store: FeatureStore
    fisher: list[dict[str, np.ndarray]] | None = None
    snapshots: list[dict[str, np.ndarray]] | None = None
    seen_scenes: set[int] = field(default_factory=set)
    seen_envs: set[int] = field(default_factory=set)
    seen_instr: set[int] = field(default_factory=set)
    seen_pairs: set[tuple[int, int]] = field(default_factory=set)
    pair_to_task: dict[tuple[int, int], int] = field(default_factory=dict)
    task_count: int = 0

    @property
    def lookup_pairs(self) -> set[tuple[int, int]] | None:
        """The scenarios retrieval may return: only trained pairs when each
        scenario's expert is its own task's, all of them (None) when expert
        rows combine freely."""
        return self.seen_pairs if self.adapters[0].pairs_only else None


def init_state(cfg: ExperimentConfig, world: World) -> LifelongState:
    adapters = build_adapter_stack(cfg, world.backbone.layer_dims)
    return LifelongState(cfg=cfg, adapters=adapters,
                         store=FeatureStore(cfg.d_f))


def train_task(state: LifelongState, world: World,
               task: TaskDescriptor) -> list[dict]:
    """Run one task through the full per-task pipeline; returns epoch logs.

    Raises FloatingPointError, naming the task, the epoch and the term, at
    the first epoch whose mean of any loss term is not finite; ``state`` is
    then part-trained and must not be saved.
    """
    cfg = state.cfg
    pair = (task.scene, task.env)
    if pair in state.seen_pairs:
        raise ValueError(f"scenario {pair} was already trained; task streams "
                         "must not repeat (scene, env) pairs")
    if not (0 <= task.scene < cfg.n_scenes and 0 <= task.env < cfg.n_envs):
        raise ValueError(f"scenario {pair} exceeds the configured capacity "
                         f"{cfg.n_scenes} x {cfg.n_envs}")
    episodes = gen_task_data(world, task, cfg.train_episodes, split=0)
    sel = Selection(scene=task.scene, env=task.env, instr=task.instr,
                    task=state.task_count)
    adapters = state.adapters
    new_fisher = fisher_estimate(world.backbone, adapters, sel, episodes,
                                 cfg.fisher_fraction)
    if state.fisher is None:
        state.fisher = new_fisher  # first task: nothing to average with
    else:
        state.fisher = [fisher_ema(prev, new, cfg.omega)
                        for prev, new in zip(state.fisher, new_fisher)]
    flags = {"scene": int(task.scene in state.seen_scenes),
             "env": int(task.env in state.seen_envs),
             "instr": int(task.instr in state.seen_instr),
             "task": 0}
    plan = build_plan(adapters, sel, state.snapshots, state.fisher, flags, cfg)
    params = {"theta": plan.theta}
    opt = AdamState(lr=cfg.lr)
    logs = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(
            [cfg.seed, _TAG_TRAIN, state.task_count, epoch])
        order = rng.permutation(len(episodes))
        sums = {"task": 0.0, "ewc": 0.0, "consistency": 0.0,
                "orthogonality": 0.0, "total": 0.0}
        t0 = time.perf_counter()
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [episodes[i] for i in order[start:start + cfg.batch_size]]
            x, y = batch_arrays(batch)
            terms, grad = total_loss_and_grads(world.backbone, plan, x, y)
            adam_step(opt, params, {"theta": grad})
            for k in sums:
                sums[k] += terms[k]
            n_batches += 1
        # the task loss is logged as "task_loss": "task" is the task index
        means = {"task_loss" if k == "task" else k: v / n_batches
                 for k, v in sums.items()}
        for name, value in means.items():
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"training diverged: task {state.task_count} (scene "
                    f"{task.scene}, env {task.env}), epoch {epoch}: mean "
                    f"{name} is {value}")
        logs.append({"task": state.task_count, "scene": task.scene,
                     "env": task.env, "epoch": epoch, **means,
                     "wall_time": time.perf_counter() - t0})

    # snapshots for the next task's consolidation terms
    state.snapshots = [{k: v.copy() for k, v in ad.blocks().items()}
                       for ad in adapters]
    state.seen_scenes.add(task.scene)
    state.seen_envs.add(task.env)
    if task.instr is not None:
        state.seen_instr.add(task.instr)
    state.seen_pairs.add(pair)
    state.pair_to_task[pair] = state.task_count
    for ep in episodes:
        state.store.add(task.scene, task.env, ep.obs[0])
    state.task_count += 1
    return logs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# held-out episodes generated, retrieved and grouped at a time: enough for
# groups of several episodes, few enough to add little to peak memory
EVAL_CHUNK = 32


def delta_provider(state: LifelongState):
    """Maps a retrieved (scene, env, instr) triple to per-layer deltas.

    Evaluation never changes the adapters, so each triple's deltas are
    computed once and kept for the provider's lifetime. The task index is
    that of the task that trained the pair, None for an untrained pair.
    """
    cache: dict[tuple, list[np.ndarray]] = {}

    def provide(scene: int, env: int, instr: int | None):
        key = (scene, env, instr)
        if key not in cache:
            sel = Selection(scene=scene, env=env, instr=instr,
                            task=state.pair_to_task.get((scene, env)))
            cache[key] = [ad.delta(sel) for ad in state.adapters]
        return cache[key]

    return provide


def policy_actions(backbone, deltas, inputs: np.ndarray) -> list[np.ndarray]:
    """Greedy open-loop action predictions for a (g, n_steps, in) stack of
    episode inputs, each truncated at its first STOP."""
    logits = forward_logits(backbone, deltas, inputs)
    predicted = []
    for actions in np.argmax(logits, axis=-1):
        stops = np.flatnonzero(actions == STOP)
        predicted.append(actions[:int(stops[0]) + 1] if stops.size else actions)
    return predicted


def episode_record(world: World, episode: SyntheticEpisode,
                   predicted: np.ndarray, epsilon: float) -> EpisodeRecord:
    cfg = world.cfg
    ref = rollout_positions(episode.actions, cfg.step_length, cfg.turn_degrees)
    pred = rollout_positions(predicted, cfg.step_length, cfg.turn_degrees)
    tl_ref = float(np.sum(np.linalg.norm(np.diff(ref, axis=0), axis=1)))
    return EpisodeRecord(trajectory=pred, goal=ref[-1], tl_ref=tl_ref,
                         epsilon=epsilon)


def evaluate_task(world: World, provider, store: FeatureStore,
                  task: TaskDescriptor, n_episodes: int,
                  cfg: ExperimentConfig, oracle_ids: bool = False,
                  pairs: set[tuple[int, int]] | None = None) -> TaskScore:
    """Score one task's held-out episodes with task-agnostic expert lookup.

    ``pairs`` restricts retrieval to those (scene, env) pairs. Episodes are
    taken ``EVAL_CHUNK`` at a time; in each chunk, the episodes that
    retrieved the same (scene, env) and have the same length share one
    forward pass. Groups are never padded to a common length, since the
    products of a padded stack round differently, so every score is bitwise
    that of scoring the episodes one by one.
    """
    if n_episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    records = []
    for start in range(0, n_episodes, EVAL_CHUNK):
        episodes = [gen_episode(world, task, i, split=1)
                    for i in range(start, min(start + EVAL_CHUNK, n_episodes))]
        groups: dict[tuple, list[int]] = {}
        for j, ep in enumerate(episodes):
            pair = ((task.scene, task.env) if oracle_ids
                    else store.search(ep.obs[0], pairs))
            groups.setdefault((pair, ep.n_steps), []).append(j)
        predicted = [None] * len(episodes)
        for ((scene, env), _), members in groups.items():
            deltas = provider(scene, env, task.instr)
            inputs = np.stack([episodes[j].model_inputs() for j in members])
            for j, actions in zip(members, policy_actions(world.backbone,
                                                          deltas, inputs)):
                predicted[j] = actions
        records += [episode_record(world, ep, actions, cfg.epsilon)
                    for ep, actions in zip(episodes, predicted)]
    return score_task(task.index, records, spl_literal=cfg.spl_literal)


# ---------------------------------------------------------------------------
# Checkpointing (one directory per completed task) and resume
# ---------------------------------------------------------------------------

def save_state(state: LifelongState, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    provenance = {"seed": state.cfg.seed, "ranks": list(state.cfg.ranks)}
    for l, ad in enumerate(state.adapters):
        ad.save(directory / f"adapter_L{l}.npz", provenance)
    np.savez(directory / "fisher.npz", **pack_layers(state.fisher))
    np.savez(directory / "snapshot.npz", **pack_layers(state.snapshots))
    state.store.save(directory / "store.npz")
    meta = {
        "task_count": state.task_count,
        "seen_scenes": sorted(state.seen_scenes),
        "seen_envs": sorted(state.seen_envs),
        "seen_instr": sorted(state.seen_instr),
        "seen_pairs": sorted(list(p) for p in state.seen_pairs),
        "pair_to_task": [[s, e, t] for (s, e), t in
                         sorted(state.pair_to_task.items())],
        "kind": state.cfg.adapter_kind,
        "seed": state.cfg.seed,
        "rng_scheme": "default_rng([seed, tag, task, ...]) per draw site",
    }
    (directory / "state.json").write_text(json.dumps(meta, indent=2))
    (directory / "complete.marker").write_text("ok\n")


def load_state(cfg: ExperimentConfig, directory: str | Path,
               n_layers: int) -> LifelongState:
    directory = Path(directory)
    meta = json.loads((directory / "state.json").read_text())
    adapters = []
    for l in range(n_layers):
        path = directory / f"adapter_L{l}.npz"
        adapters.append(AdapterBase.load(path))
        if adapters[-1].kind != cfg.adapter_kind:
            raise ValueError(f"checkpoint {path} holds a {adapters[-1].kind!r} "
                             f"adapter, the config asks for {cfg.adapter_kind!r}")
    state = LifelongState(cfg=cfg, adapters=adapters,
                          store=FeatureStore.load(directory / "store.npz"))
    state.task_count = meta["task_count"]
    state.seen_scenes = set(meta["seen_scenes"])
    state.seen_envs = set(meta["seen_envs"])
    state.seen_instr = set(meta["seen_instr"])
    state.seen_pairs = {tuple(p) for p in meta["seen_pairs"]}
    state.pair_to_task = {(s, e): t for s, e, t in meta["pair_to_task"]}
    state.fisher = _load_layers(directory / "fisher.npz", n_layers)
    state.snapshots = _load_layers(directory / "snapshot.npz", n_layers)
    return state


def _load_layers(path: Path, n_layers: int) -> list[dict[str, np.ndarray]]:
    with np.load(path) as data:
        return unpack_layers({k: np.asarray(data[k]) for k in data.files},
                             n_layers)


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

def run_dir_layout(run_dir: str | Path) -> dict[str, Path]:
    run_dir = Path(run_dir)
    return {"root": run_dir, "config": run_dir / "config.json",
            "manifest": run_dir / "manifest.json",
            "logs": run_dir / "train_log.jsonl",
            "reference": run_dir / "reference.json"}


def task_dir(run_dir: str | Path, t: int) -> Path:
    return Path(run_dir) / f"task_{t:03d}"


def run_training(cfg: ExperimentConfig, run_dir: str | Path,
                 eval_each: bool = True, progress=None) -> dict:
    """Train the full stream sequentially, checkpointing after each task.

    If the run directory already holds complete task checkpoints for this
    exact config, training resumes after the last complete task; a finished
    run is left as it is. With ``eval_each`` the just-trained task is scored
    immediately, which by sequential determinism equals the prefix-run
    reference value.
    """
    cfg.validate()
    layout = run_dir_layout(run_dir)
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)

    layout["root"].mkdir(parents=True, exist_ok=True)
    if layout["manifest"].exists():
        manifest = json.loads(layout["manifest"].read_text())
        if manifest.get("config_hash") != cfg.config_hash():
            raise ValueError(
                f"run directory {run_dir} belongs to a different config "
                f"(hash {manifest.get('config_hash')} != {cfg.config_hash()})")
    else:
        # written before any checkpoint, so that no task is sealed in a
        # directory that does not name its config
        _write_atomic(layout["manifest"], json.dumps(
            {"config_hash": cfg.config_hash(),
             "stream": [[t.scene, t.env] for t in stream]}, indent=2))
    cfg.to_file(layout["config"])

    completed = 0
    while completed < cfg.n_tasks:
        marker = task_dir(run_dir, completed) / "complete.marker"
        if marker.exists():
            completed += 1
        else:
            break

    summary = {"run_dir": str(run_dir), "tasks": cfg.n_tasks,
               "config_hash": cfg.config_hash()}
    if completed == cfg.n_tasks:
        return summary
    # an interrupted task may have logged epochs; it is trained again
    _trim_log(layout["logs"], completed)
    n_layers = len(world.backbone.layer_dims)
    if completed:
        state = load_state(cfg, task_dir(run_dir, completed - 1), n_layers)
    else:
        state = init_state(cfg, world)

    reference = _load_reference(layout["reference"])
    for t in range(completed, cfg.n_tasks):
        task = stream[t]
        logs = train_task(state, world, task)
        with layout["logs"].open("a") as fh:
            for rec in logs:
                fh.write(json.dumps(rec) + "\n")
        if eval_each:
            score = evaluate_task(world, delta_provider(state), state.store,
                                  task, cfg.test_episodes, cfg,
                                  pairs=state.lookup_pairs)
            reference[str(t)] = _reference_entry(task, score)
            _write_atomic(layout["reference"], json.dumps(
                {"config_hash": cfg.config_hash(), "values": reference},
                indent=2))
        save_state(state, task_dir(run_dir, t))
        if progress:
            progress(f"task {t + 1}/{cfg.n_tasks} "
                     f"(scene {task.scene}, env {task.env}) done")
    return summary


def _reference_entry(task: TaskDescriptor, score: TaskScore) -> dict:
    return {"task": task.index, "scene": task.scene, "env": task.env,
            "sr": score.sr, "spl": score.spl, "osr": score.osr}


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by a file holding ``text``; an interruption leaves
    the old file or the new one, never a part."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _trim_log(path: Path, completed: int) -> None:
    """Keep only the training-log lines of the first ``completed`` tasks."""
    if not path.exists():
        return
    lines = path.read_text().splitlines(keepends=True)

    def done(line: str) -> bool:
        try:
            return json.loads(line)["task"] < completed
        except json.JSONDecodeError:   # cut short mid-write
            return False

    kept = [line for line in lines if done(line)]
    if len(kept) != len(lines):
        _write_atomic(path, "".join(kept))


def _load_reference(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
        return payload["values"]
    except (json.JSONDecodeError, KeyError) as exc:
        warnings.warn(f"reference cache {path} is corrupted ({exc}); "
                      "recomputing from scratch")
        return {}


def final_state(cfg: ExperimentConfig, run_dir: str | Path) -> tuple[World, LifelongState]:
    world = World(cfg.world_config())
    n_layers = len(world.backbone.layer_dims)
    last = task_dir(run_dir, cfg.n_tasks - 1)
    if not (last / "complete.marker").exists():
        raise FileNotFoundError(
            f"no complete checkpoint for task {cfg.n_tasks - 1} under {run_dir}; "
            "run training first")
    return world, load_state(cfg, last, n_layers)


def run_eval(cfg: ExperimentConfig, run_dir: str | Path,
             oracle_ids: bool = False) -> list[TaskScore]:
    """Score every task's held-out episodes with the final checkpoint.

    Reference values cached by training (or `run_reference`) are attached so
    forgetting rates can be reported.
    """
    cfg.validate()
    layout = run_dir_layout(run_dir)
    world, state = final_state(cfg, run_dir)
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    reference = _load_reference(layout["reference"])
    provider = delta_provider(state)
    scores = []
    for task in stream:
        score = evaluate_task(world, provider, state.store, task,
                              cfg.test_episodes, cfg, oracle_ids=oracle_ids,
                              pairs=state.lookup_pairs)
        ref = reference.get(str(task.index))
        if ref is not None:
            score.m_sr, score.m_spl, score.m_osr = ref["sr"], ref["spl"], ref["osr"]
        scores.append(score)
    return scores


def run_reference(cfg: ExperimentConfig, run_dir: str | Path,
                  progress=None) -> dict:
    """Reference metrics M-X_t: performance on task t when trained on 1..t.

    Training is deterministic and strictly sequential, so the checkpoint of
    task t in the full run is the state of a prefix run of length t. The
    run is trained (or resumed; a finished run is left as it is) with
    evaluation after each task, then every task missing from
    ``reference.json``, because it was trained without evaluation or the
    file was corrupted, is scored from its own checkpoint.
    """
    cfg.validate()
    layout = run_dir_layout(run_dir)
    run_training(cfg, run_dir, eval_each=True, progress=progress)
    values = _load_reference(layout["reference"])
    missing = [t for t in range(cfg.n_tasks) if str(t) not in values]
    if not missing:
        return values
    world = World(cfg.world_config())
    n_layers = len(world.backbone.layer_dims)
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    for t in missing:
        state = load_state(cfg, task_dir(run_dir, t), n_layers)
        values[str(t)] = _reference_entry(stream[t], evaluate_task(
            world, delta_provider(state), state.store, stream[t],
            cfg.test_episodes, cfg, pairs=state.lookup_pairs))
        if progress:
            progress(f"reference {t + 1}/{cfg.n_tasks} rebuilt")
    values = {str(t): values[str(t)] for t in range(cfg.n_tasks)}
    _write_atomic(layout["reference"], json.dumps(
        {"config_hash": cfg.config_hash(), "values": values}, indent=2))
    return values


def run_gradcheck(cfg: ExperimentConfig, n_episodes: int = 3) -> dict[str, float]:
    """Finite-difference validation of the full objective on this config.

    Returns max relative error per parameter block; all must be < 1e-4.
    """
    from .training import finite_difference_check

    cfg.validate()
    world = World(cfg.world_config())
    rng = np.random.default_rng([cfg.seed, 31])
    adapters = build_adapter_stack(cfg, world.backbone.layer_dims)
    for ad in adapters:
        for name, arr in ad.blocks().items():
            if name in ad.expert_axes:
                arr += 0.05 * rng.standard_normal(arr.shape)
            elif np.all(arr == 0.0):
                arr += 0.1 * rng.standard_normal(arr.shape)
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, min(cfg.n_tasks, 2), cfg.seed,
                        n_instr=cfg.n_instr)
    task = stream[0]
    episodes = gen_task_data(world, task, n_episodes)
    x, y = batch_arrays(episodes)
    sel = Selection(scene=task.scene, env=task.env, instr=task.instr, task=0)
    snapshots = [{k: v + 0.02 * rng.standard_normal(v.shape)
                  for k, v in ad.blocks().items()} for ad in adapters]
    fishers = [{k: rng.uniform(0.1, 1.5, size=ad.blocks()[k].shape)
                for k in ad.shared_names} for ad in adapters]
    flags = {"scene": 1, "env": 0, "instr": 0, "task": 0}
    plan = build_plan(adapters, sel, snapshots, fishers, flags, cfg)
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)

    def loss_fn():
        return total_loss_and_grads(world.backbone, plan, x, y)[0]["total"]

    views = plan.layout.views
    return finite_difference_check(loss_fn, views(plan.theta), views(grad),
                                   mask=views(plan.mask))

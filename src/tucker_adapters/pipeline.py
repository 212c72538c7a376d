"""Lifelong-learning pipeline: sequential task training, task-agnostic
evaluation, reference runs, and the resumable run loop over `rundir`.

Per task the trainer (i) inherits shared blocks and any previously learned
expert slices by construction (the same adapters persist across tasks),
(ii) estimates Fisher weights on the leading fraction of the task's data and
folds them into a running average, (iii) runs the epoch/minibatch loop over
the combined objective with non-current experts frozen, anchored to the
adapters as the previous task left them, and (iv) stores retrieval features
for inference.

Every random draw is keyed by (config seed, fixed tag, task index, ...), so
an interrupted run resumed from its last complete task checkpoint is
bitwise-identical to an uninterrupted one.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np

from .adapters import ADAPTER_KINDS, AdapterBase, FlatLayout, Selection
from .config import ExperimentConfig, forked_map
from .metrics import EpisodeRecord, TaskScore, path_length, score_task
from .retrieval import FeatureStore
from .rundir import (
    LifelongState,
    append_log,
    final_state,
    load_state,
    open_run,
    read_reference,
    reference_entry,
    save_state,
    sealed_count,
    task_dir,
    trim_log,
    write_reference,
)
from .tasks import (
    EPISODE_CHUNK,
    STOP,
    TaskDescriptor,
    World,
    forward_logits,
    gen_episode,
    gen_stream,
    gen_task_data,
    rollout_positions,
    walk_steps,
)
from .training import (
    AdamState,
    adam_step,
    batch_arrays,
    build_plan,
    finite_difference_check,
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
    if pair in state.pair_to_task:
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
        state.fisher = fisher_ema(state.fisher, new_fisher, cfg.omega)
    flags = {"scene": int(any(t.scene == task.scene for t in state.trained)),
             "env": int(any(t.env == task.env for t in state.trained)),
             "instr": int(task.instr in {t.instr for t in state.trained} - {None})}
    # the consolidation anchor: every parameter as the last task left it
    snapshot = (FlatLayout.of(adapters).bind(adapters) if state.task_count
                else None)
    plan = build_plan(adapters, sel, snapshot, state.fisher, flags, cfg)
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
            adam_step(opt, plan.theta, grad)
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

    for ep in episodes:
        state.store.add(task.scene, task.env, ep.obs[0])
    state.trained.append(task)
    return logs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def policy_actions(backbone, deltas, inputs: np.ndarray) -> np.ndarray:
    """Greedy open-loop actions for a (g, n_steps, in) stack of episode inputs."""
    return np.argmax(forward_logits(backbone, deltas, inputs), axis=-1)


def episode_record(world: World, reference: np.ndarray, predicted: np.ndarray,
                   epsilon: float) -> EpisodeRecord:
    """The stacked record of STOP-padded teacher and predicted action rows."""
    cfg = world.cfg
    ref = rollout_positions(reference, cfg.step_length, cfg.turn_degrees)
    pred = rollout_positions(predicted, cfg.step_length, cfg.turn_degrees)
    return EpisodeRecord(trajectory=pred, goal=ref[:, -1],
                         tl_ref=path_length(ref, walk_steps(reference) + 1),
                         epsilon=epsilon, n_points=walk_steps(predicted) + 1)


def evaluate_task(world: World, state: LifelongState, task: TaskDescriptor,
                  n_episodes: int, oracle_ids: bool = False) -> TaskScore:
    """Score one task's held-out episodes with task-agnostic expert lookup.

    Retrieval searches ``state.store``, and only among trained pairs when
    each scenario's expert is its own task's. Episodes are drawn
    ``EPISODE_CHUNK`` at a time, and one ``FeatureStore.search`` of the
    chunk's stacked first observations retrieves every episode's
    (scene, env); in each chunk, the episodes that retrieved the same pair
    and have the same length share one forward pass. Each retrieved pair's
    deltas are computed once per call, with the task index of the task that
    trained the pair (None for an untrained one). Groups are never padded
    to a common length, since the products of a padded stack round
    differently. All episodes are then scored as one stack, so every score
    is bitwise that of scoring the episodes one by one.
    """
    if n_episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    pairs = set(state.pair_to_task) if state.adapters[0].pairs_only else None

    @functools.cache
    def deltas_of(scene: int, env: int) -> list[np.ndarray]:
        sel = Selection(scene, env, task.instr, state.pair_to_task.get((scene, env)))
        return [ad.delta(sel) for ad in state.adapters]

    # STOP-padded action rows of the teacher and of the policy
    reference = np.full((n_episodes, world.cfg.horizon), STOP)
    predicted = reference.copy()
    for start in range(0, n_episodes, EPISODE_CHUNK):
        episodes = gen_episode(world, task, range(
            start, min(start + EPISODE_CHUNK, n_episodes)), split=1)
        retrieved = ([(task.scene, task.env)] * len(episodes) if oracle_ids
                     else state.store.search(
                         np.stack([ep.obs[0] for ep in episodes]), pairs))
        groups: dict[tuple, list[int]] = {}
        for j, (ep, pair) in enumerate(zip(episodes, retrieved), start):
            reference[j, :ep.n_steps] = ep.actions
            groups.setdefault((pair, ep.n_steps), []).append(j)
        for ((scene, env), n_steps), members in groups.items():
            inputs = np.stack([episodes[j - start].inputs for j in members])
            predicted[members, :n_steps] = policy_actions(
                world.backbone, deltas_of(scene, env), inputs)
    record = episode_record(world, reference, predicted, state.cfg.epsilon)
    return score_task(task.index, [record], spl_literal=state.cfg.spl_literal)


# ---------------------------------------------------------------------------
# Run orchestration (the run directory's files are `rundir`'s)
# ---------------------------------------------------------------------------

def run_training(cfg: ExperimentConfig, run_dir: str | Path,
                 eval_each: bool = True, progress=None) -> dict:
    """Train the full stream sequentially, checkpointing after each task.

    Resumes after the last complete task checkpoint of this exact config;
    a finished run is left as it is. With ``eval_each`` every task missing
    from ``reference.json`` is then scored on up to one process per CPU
    (`config.forked_map`) from its checkpoint, its prefix-run state by
    sequential determinism, or, if this call trained it last, from its live
    state; the file is written once, in task order.
    """
    world, stream = open_run(cfg, run_dir, train=True)
    completed = sealed_count(run_dir, cfg.n_tasks)
    n_layers = len(world.backbone.layer_dims)
    live = {}   # task index -> the state its checkpoint was sealed from
    if completed < cfg.n_tasks:
        # an interrupted task may have logged epochs; it is trained again
        trim_log(run_dir, completed)
        state = (load_state(cfg, task_dir(run_dir, completed - 1), n_layers)
                 if completed else init_state(cfg, world))
        for t, task in enumerate(stream[completed:], completed):
            append_log(run_dir, train_task(state, world, task))
            save_state(state, task_dir(run_dir, t))
            if progress:
                progress(f"task {t + 1}/{cfg.n_tasks} "
                         f"(scene {task.scene}, env {task.env}) done")
        live[cfg.n_tasks - 1] = state
    if eval_each:
        reference = read_reference(
            run_dir, cfg, "the missing tasks are rebuilt from their checkpoints")
        missing = [t for t in range(cfg.n_tasks) if str(t) not in reference]
        scores = forked_map(lambda t: evaluate_task(
            world, live.get(t) or load_state(cfg, task_dir(run_dir, t), n_layers),
            stream[t], cfg.test_episodes), missing)
        for t, score in zip(missing, scores):
            reference[str(t)] = reference_entry(stream[t], score)
            if progress:
                progress(f"reference {t + 1}/{cfg.n_tasks} scored")
        if missing:
            write_reference(run_dir, cfg, {str(t): reference[str(t)]
                                           for t in range(cfg.n_tasks)})
    return {"run_dir": str(run_dir), "tasks": cfg.n_tasks,
            "config_hash": cfg.config_hash()}


def run_eval(cfg: ExperimentConfig, run_dir: str | Path,
             oracle_ids: bool = False) -> list[TaskScore]:
    """Score every task's held-out episodes with the final checkpoint.

    The tasks are independent once the state is loaded, so they are scored
    on up to one process per available CPU (see `config.forked_map`); each
    score is bitwise the serial one. Reference values cached by training (or
    `run_reference`) are attached so forgetting rates can be reported.
    """
    world, stream, state = final_state(cfg, run_dir)
    reference = read_reference(run_dir, cfg, "eval reports without reference values")
    scores = forked_map(lambda task: evaluate_task(
        world, state, task, cfg.test_episodes, oracle_ids=oracle_ids), stream)
    for task, score in zip(stream, scores):
        ref = reference.get(str(task.index))
        if ref is not None:
            score.m_sr, score.m_spl, score.m_osr = ref["sr"], ref["spl"], ref["osr"]
    return scores


def run_reference(cfg: ExperimentConfig, run_dir: str | Path,
                  progress=None) -> dict:
    """Reference metrics M-X_t: performance on task t when trained on 1..t.

    Training is deterministic and strictly sequential, so the checkpoint of
    task t in the full run is the state of a prefix run of length t.
    `run_training` with ``eval_each`` trains or resumes the run and scores
    every task missing from ``reference.json``; returns the file's entries.
    """
    run_training(cfg, run_dir, eval_each=True, progress=progress)
    return read_reference(run_dir, cfg, "reference reports no values")


def run_gradcheck(cfg: ExperimentConfig) -> dict[str, float]:
    """Finite-difference validation of the full objective on three training
    episodes of this config's first task; returns the max relative error
    per parameter block, each of which must be < 1e-4."""
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
    task = gen_stream(cfg.n_scenes, cfg.n_envs, min(cfg.n_tasks, 2), cfg.seed,
                      n_instr=cfg.n_instr)[0]
    x, y = batch_arrays(gen_task_data(world, task, 3))
    sel = Selection(scene=task.scene, env=task.env, instr=task.instr, task=0)
    layout = FlatLayout.of(adapters)
    theta = layout.bind(adapters)
    snapshot = theta + 0.02 * rng.standard_normal(layout.size)
    fisher = rng.uniform(0.1, 1.5, size=layout.n_shared)
    flags = {"scene": 1, "env": 0, "instr": 0}
    plan = build_plan(adapters, sel, snapshot, fisher, flags, cfg)
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)

    def loss_fn():
        return total_loss_and_grads(world.backbone, plan, x, y)[0]["total"]

    return finite_difference_check(loss_fn, plan, grad)

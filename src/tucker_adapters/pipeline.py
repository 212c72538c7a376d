"""Lifelong-learning pipeline: sequential task training, task-agnostic
evaluation, reference runs, and resumable checkpointing.

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
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adapters import ADAPTER_KINDS, AdapterBase, FlatLayout, Selection
from .config import ExperimentConfig, check_field, forked_map, write_atomic
from .metrics import EpisodeRecord, TaskScore, path_length, score_task
from .retrieval import FeatureStore
from .runfiles import check_record, open_npz, read_json
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


@dataclass
class LifelongState:
    """Everything the sequential trainer carries between tasks. ``trained``,
    the tasks trained so far in order, is the first ``task_count`` tasks of
    the config's stream in a run; what ``state.json`` records follows from it.
    """

    cfg: ExperimentConfig
    adapters: list[AdapterBase]
    store: FeatureStore
    # Fisher over the shared slots of FlatLayout.of(adapters)
    fisher: np.ndarray | None = None
    trained: list[TaskDescriptor] = field(default_factory=list)

    @property
    def task_count(self) -> int:
        return len(self.trained)

    @property
    def pair_to_task(self) -> dict[tuple[int, int], int]:
        return {(t.scene, t.env): i for i, t in enumerate(self.trained)}

    def record(self) -> dict:
        """The ``state.json`` that ``save_state`` writes and ``load_state`` checks."""
        triples = sorted([t.scene, t.env, i] for i, t in enumerate(self.trained))
        return {
            "task_count": self.task_count,
            "seen_scenes": sorted({t.scene for t in self.trained}),
            "seen_envs": sorted({t.env for t in self.trained}),
            "seen_instr": sorted({t.instr for t in self.trained} - {None}),
            "seen_pairs": [[s, e] for s, e, _ in triples],
            "pair_to_task": triples,
            "kind": self.cfg.adapter_kind,
            "seed": self.cfg.seed,
            "rng_scheme": "default_rng([seed, tag, task, ...]) per draw site",
        }


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
# Checkpointing (one directory per completed task) and resume
# ---------------------------------------------------------------------------

def save_state(state: LifelongState, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    provenance = {"seed": state.cfg.seed, "ranks": list(state.cfg.ranks)}
    for l, ad in enumerate(state.adapters):
        ad.save(directory / f"adapter_L{l}.npz", provenance)
    np.savez(directory / "fisher.npz",
             **FlatLayout.of(state.adapters).views(state.fisher))
    state.store.save(directory / "store.npz")
    (directory / "state.json").write_text(json.dumps(state.record(), indent=2))
    (directory / "complete.marker").write_text("ok\n")


def load_state(cfg: ExperimentConfig, directory: str | Path,
               n_layers: int) -> LifelongState:
    """The state ``save_state`` sealed in ``directory``: its trained tasks are
    the first ``task_count`` of the config's stream, and a ``state.json`` that
    is not exactly their ``record()`` is a ValueError naming each wrong key.
    The adapters' kind is checked before the record."""
    directory = Path(directory)
    state_file = directory / "state.json"
    meta = read_json(state_file, dict)
    count = meta.get("task_count")
    if type(count) is not int:
        raise ValueError(f"{state_file}: task_count: expected an int, got {count!r}")
    adapters = []
    for l in range(n_layers):
        path = directory / f"adapter_L{l}.npz"
        adapters.append(AdapterBase.load(path))
        if adapters[-1].kind != cfg.adapter_kind:
            raise ValueError(f"checkpoint {path} holds a {adapters[-1].kind!r} "
                             f"adapter, the config asks for {cfg.adapter_kind!r}")
    store_file = directory / "store.npz"
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    state = LifelongState(cfg=cfg, adapters=adapters,
                          store=FeatureStore.load(store_file),
                          trained=stream[:count])
    record = state.record()
    check_record(state_file, meta, record)
    # train_task adds one feature per trained pair, so the store holds
    # exactly the trained scenes and envs
    for kind, table in (("scene", state.store.scenes), ("env", state.store.envs)):
        if sorted(table.counts) != record[f"seen_{kind}s"]:
            raise ValueError(
                f"{store_file}: {kind}_ids: expected the {kind}s of the trained "
                f"pairs {record[f'seen_{kind}s']}, got {sorted(table.counts)}")
    layout = FlatLayout.of(adapters)
    state.fisher = np.empty(layout.n_shared)
    views = layout.views(state.fisher)
    with open_npz(directory / "fisher.npz") as data:
        for key in sorted(views.keys() | set(data.files)):
            array = data[key]
            block = views[key].shape if key in views else "no shared block"
            if array.shape != block:
                raise ValueError(f"{key} has shape {array.shape}, expected {block}")
            views[key][...] = array
    return state


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


def open_run(cfg: ExperimentConfig, run_dir: str | Path,
             train: bool = False) -> tuple[World, list[TaskDescriptor]]:
    """Validate ``cfg`` and return its world and task stream, refusing a
    ``run_dir`` whose manifest names another config or that holds task
    checkpoints without a manifest. With ``train`` a directory with neither
    is created and its manifest written before any task is sealed there."""
    cfg.validate()
    layout = run_dir_layout(run_dir)
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    manifest = {"config_hash": cfg.config_hash(),
                "stream": [[t.scene, t.env] for t in stream]}
    if layout["manifest"].exists():
        found = read_json(layout["manifest"], dict)
        if found.get("config_hash") != manifest["config_hash"]:
            raise ValueError(
                f"run directory {run_dir} belongs to a different config "
                f"(hash {found.get('config_hash')} != {manifest['config_hash']})")
        check_record(layout["manifest"], found, manifest)
    elif any(layout["root"].glob("task_*")):
        raise ValueError(f"no manifest.json at {layout['manifest']}, though the "
                         "directory holds task checkpoints: no config can resume it")
    elif train:
        layout["root"].mkdir(parents=True, exist_ok=True)
        write_atomic(layout["manifest"], json.dumps(manifest, indent=2))
    return world, stream


def run_training(cfg: ExperimentConfig, run_dir: str | Path,
                 eval_each: bool = True, progress=None) -> dict:
    """Train the full stream sequentially, checkpointing after each task.

    If the run directory already holds complete task checkpoints for this
    exact config, training resumes after the last complete task; a finished
    run is left as it is. With ``eval_each`` the just-trained task is scored
    immediately, which by sequential determinism equals the prefix-run
    reference value, and first every sealed task missing from
    ``reference.json``, because it was trained without evaluation or the
    file was corrupted, is scored from its own checkpoint, on up to one
    process per available CPU (see `config.forked_map`).
    """
    world, stream = open_run(cfg, run_dir, train=True)
    layout = run_dir_layout(run_dir)
    cfg.to_file(layout["config"])

    completed = 0
    while completed < cfg.n_tasks:
        marker = task_dir(run_dir, completed) / "complete.marker"
        if marker.exists():
            completed += 1
        else:
            break

    n_layers = len(world.backbone.layer_dims)
    if eval_each:
        reference = _load_reference(
            layout["reference"], "the missing tasks are rebuilt from their checkpoints")
        missing = [t for t in range(completed) if str(t) not in reference]
        if missing:
            entries = forked_map(lambda t: _reference_entry(stream[t], evaluate_task(
                world, load_state(cfg, task_dir(run_dir, t), n_layers), stream[t],
                cfg.test_episodes)), missing)
            for t, entry in zip(missing, entries):
                reference[str(t)] = entry
                if progress:
                    progress(f"reference {t + 1}/{cfg.n_tasks} rebuilt")
        # in task order, and without the entry of any task trained again
        reference = {str(t): reference[str(t)] for t in range(completed)}
        if missing:
            _write_reference(layout["reference"], cfg, reference)

    summary = {"run_dir": str(run_dir), "tasks": cfg.n_tasks,
               "config_hash": cfg.config_hash()}
    if completed == cfg.n_tasks:
        return summary
    # an interrupted task may have logged epochs; it is trained again
    _trim_log(layout["logs"], completed)
    if completed:
        state = load_state(cfg, task_dir(run_dir, completed - 1), n_layers)
    else:
        state = init_state(cfg, world)

    for t in range(completed, cfg.n_tasks):
        task = stream[t]
        logs = train_task(state, world, task)
        with layout["logs"].open("a") as fh:
            for rec in logs:
                fh.write(json.dumps(rec) + "\n")
        if eval_each:
            score = evaluate_task(world, state, task, cfg.test_episodes)
            reference[str(t)] = _reference_entry(task, score)
            _write_reference(layout["reference"], cfg, reference)
        save_state(state, task_dir(run_dir, t))
        if progress:
            progress(f"task {t + 1}/{cfg.n_tasks} "
                     f"(scene {task.scene}, env {task.env}) done")
    return summary


def _reference_entry(task: TaskDescriptor, score: TaskScore) -> dict:
    return {"task": task.index, "scene": task.scene, "env": task.env,
            "sr": score.sr, "spl": score.spl, "osr": score.osr}


def _write_reference(path: Path, cfg: ExperimentConfig, values: dict) -> None:
    write_atomic(path, json.dumps(
        {"config_hash": cfg.config_hash(), "values": values}, indent=2))


def _trim_log(path: Path, completed: int) -> None:
    """Keep only the training-log lines of the first ``completed`` tasks.
    A last line cut short mid-write is dropped; any other line that is not
    a JSON object with an int "task" raises a ValueError naming the line."""
    if not path.exists():
        return
    lines = path.read_text().splitlines(keepends=True)
    kept = []
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) and not line.endswith("\n"):
                continue   # cut short mid-write
            record = None
        if not (isinstance(record, dict) and type(record.get("task")) is int):
            raise ValueError(f"{path}: line {number}: expected a JSON object "
                             f'with an int "task", got {line.strip()!r}')
        if record["task"] < completed:
            kept.append(line)
    if len(kept) != len(lines):
        write_atomic(path, "".join(kept))


def _load_reference(path: Path, fallback: str) -> dict:
    """The task entries cached in ``path``: {} when it does not exist, and
    {} with a warning that ends with ``fallback``, what the caller does
    then, when it is not ``{"values": {task: {"sr", "spl", "osr": numbers,
    ...}}}``."""
    if not path.exists():
        return {}
    try:
        values = read_json(path, dict).get("values")
        if not isinstance(values, dict):
            raise ValueError('expected a "values" object')
        for task, entry in values.items():
            if not isinstance(entry, dict):
                raise ValueError(f"task {task}: expected an object, got {entry!r}")
            for metric in ("sr", "spl", "osr"):
                check_field(TaskScore, metric, entry.get(metric))
        return values
    except ValueError as exc:   # a ConfigError too
        warnings.warn(f"reference cache {path} is corrupted ({exc}); {fallback}")
        return {}


def final_state(cfg: ExperimentConfig, run_dir: str | Path
                ) -> tuple[World, list[TaskDescriptor], LifelongState]:
    """The world, the task stream and the last checkpoint of a finished run."""
    world, stream = open_run(cfg, run_dir)
    last = task_dir(run_dir, cfg.n_tasks - 1)
    if not (last / "complete.marker").exists():
        raise FileNotFoundError(
            f"task {cfg.n_tasks - 1} is not complete: no "
            f"{last / 'complete.marker'}; run training first")
    return world, stream, load_state(cfg, last, len(world.backbone.layer_dims))


def run_eval(cfg: ExperimentConfig, run_dir: str | Path,
             oracle_ids: bool = False) -> list[TaskScore]:
    """Score every task's held-out episodes with the final checkpoint.

    The tasks are independent once the state is loaded, so they are scored
    on up to one process per available CPU (see `config.forked_map`); each
    score is bitwise the serial one. Reference values cached by training (or
    `run_reference`) are attached so forgetting rates can be reported.
    """
    world, stream, state = final_state(cfg, run_dir)
    reference = _load_reference(run_dir_layout(run_dir)["reference"],
                                "eval reports without reference values")
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
    task t in the full run is the state of a prefix run of length t. The
    run is trained (or resumed; a finished run is left as it is) with
    evaluation after each task, which also rebuilds every sealed task
    missing from ``reference.json``; returns the file's task entries.
    """
    run_training(cfg, run_dir, eval_each=True, progress=progress)
    return read_json(run_dir_layout(run_dir)["reference"], dict)["values"]


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

"""Synthetic multi-hierarchical task streams and the frozen toy backbone.

A "world" fixes everything the data generator needs: a frozen two-layer
action network, one feature-cluster center per scene, one feature offset per
environment, and a hidden teacher whose weights are the backbone plus
low-rank shared / per-scene / per-environment perturbations. Episodes are
sequences of observation features with teacher-labelled actions from
``{FORWARD, LEFT, RIGHT, STOP}``; the optimal adapter for task ``(s, e)``
therefore genuinely factorizes across the two hierarchies.

Scene directions (and environment directions) are orthonormal columns of a
random rotation, so cluster centers are exactly ``sqrt(2) * scale`` apart and
the separation-to-noise ratio is controlled, not left to chance.

All generators are pure functions of explicit integer seed tuples
(``numpy.random.default_rng([seed, tag, ...])``), so any episode can be
regenerated without carrying RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORWARD, LEFT, RIGHT, STOP = 0, 1, 2, 3
N_ACTIONS = 4

# tags to keep independent rng streams disjoint under one experiment seed
_TAG_WORLD, _TAG_STREAM, _TAG_EPISODE = 11, 13, 17


@dataclass(frozen=True)
class TaskDescriptor:
    """One navigation scenario: a scene paired with an environment."""

    index: int
    scene: int
    env: int
    instr: int | None = None


@dataclass
class WorldConfig:
    d_f: int = 64              # observation / instruction feature width
    hidden: int = 64
    n_scenes: int = 5
    n_envs: int = 4
    n_instr: int = 0           # > 0 enables the third hierarchy
    horizon: int = 16
    feature_noise: float = 0.15
    scene_scale: float = 1.0
    env_scale: float = 1.0
    instr_scale: float = 0.3
    teacher_rank: int = 2
    teacher_shared_scale: float = 1.0
    teacher_scene_scale: float = 1.5
    teacher_env_scale: float = 1.5
    teacher_instr_scale: float = 0.3
    forward_bias: float = 0.5  # head-bias tilt so reference paths make progress
    stop_bias: float = -1.5
    step_length: float = 1.0
    turn_degrees: float = 15.0
    seed: int = 0


@dataclass
class ToyBackbone:
    """Frozen dense action network: concat(obs, instr) -> hidden -> 4 logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.weights]

    @classmethod
    def init(cls, d_f: int, hidden: int, forward_bias: float,
             stop_bias: float, rng: np.random.Generator) -> "ToyBackbone":
        w1 = rng.normal(0.0, np.sqrt(2.0 / (2 * d_f)), size=(hidden, 2 * d_f))
        w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(N_ACTIONS, hidden))
        b1 = np.zeros(hidden)
        b2 = np.zeros(N_ACTIONS)
        b2[FORWARD] = forward_bias
        b2[STOP] = stop_bias
        return cls(weights=[w1, w2], biases=[b1, b2])


def forward_logits(backbone: ToyBackbone, deltas: list[np.ndarray] | None,
                   x: np.ndarray) -> np.ndarray:
    """Batched forward pass; ``x`` is (g, n, in_dim), (n, in_dim) or (in_dim,).

    Each layer computes ``(W + delta) h + bias`` with tanh between layers and
    a linear final layer. ``deltas`` entries may be None (adapter off). A
    (g, n, in_dim) stack gives bitwise the logits of its g slices passed one
    at a time: ``@`` runs one product per slice.
    """
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_layers = len(backbone.weights)
    for l, (w, b) in enumerate(zip(backbone.weights, backbone.biases)):
        d = None if deltas is None else deltas[l]
        w_eff = w if d is None else w + d
        if h.shape[-1] != w_eff.shape[1]:
            raise ValueError(
                f"layer {l} expects input width {w_eff.shape[1]}, got {h.shape[-1]}")
        h = h @ w_eff.T + b
        if l < n_layers - 1:
            h = np.tanh(h)
    return h


@dataclass
class SyntheticEpisode:
    obs: np.ndarray           # (n_steps, d_f)
    instr: np.ndarray         # (d_f,)
    actions: np.ndarray       # (n_steps,) teacher labels, ends at STOP or horizon
    scene: int
    env: int
    instr_type: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.actions)

    def model_inputs(self) -> np.ndarray:
        """Per-step concatenated (obs, instr) rows for the backbone."""
        return np.hstack([self.obs, np.tile(self.instr, (self.n_steps, 1))])


class World:
    """All latent structure behind one experiment's synthetic data."""

    def __init__(self, cfg: WorldConfig):
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed, _TAG_WORLD])
        self.backbone = ToyBackbone.init(cfg.d_f, cfg.hidden, cfg.forward_bias,
                                         cfg.stop_bias, rng)
        self.scene_centers = cfg.scene_scale * _orthonormal_rows(
            rng, cfg.n_scenes, cfg.d_f)
        self.env_offsets = cfg.env_scale * _orthonormal_rows(
            rng, cfg.n_envs, cfg.d_f)
        n_q = max(cfg.n_instr, 1)
        self.instr_offsets = _orthonormal_rows(rng, n_q, cfg.d_f)
        self.teacher_shared = [
            _low_rank(rng, dims, cfg.teacher_rank, cfg.teacher_shared_scale)
            for dims in self.backbone.layer_dims]
        self.teacher_scene = [
            [_low_rank(rng, dims, cfg.teacher_rank, cfg.teacher_scene_scale)
             for dims in self.backbone.layer_dims]
            for _ in range(cfg.n_scenes)]
        self.teacher_env = [
            [_low_rank(rng, dims, cfg.teacher_rank, cfg.teacher_env_scale)
             for dims in self.backbone.layer_dims]
            for _ in range(cfg.n_envs)]
        self.teacher_instr = [
            [_low_rank(rng, dims, cfg.teacher_rank, cfg.teacher_instr_scale)
             for dims in self.backbone.layer_dims]
            for _ in range(n_q)]
        # the backbone with the teacher's delta added, per (scene, env,
        # instr), built on first use
        self._teachers: dict[tuple, ToyBackbone] = {}

    def teacher_deltas(self, scene: int, env: int,
                       instr: int | None = None) -> list[np.ndarray]:
        deltas = [sh + sc + en for sh, sc, en in
                  zip(self.teacher_shared, self.teacher_scene[scene],
                      self.teacher_env[env])]
        if self.cfg.n_instr > 0 and instr is not None:
            deltas = [d + q for d, q in zip(deltas, self.teacher_instr[instr])]
        return deltas

    def teacher_actions(self, scene: int, env: int, instr: int | None,
                        inputs: np.ndarray) -> np.ndarray:
        key = (scene, env, instr)
        teacher = self._teachers.get(key)
        if teacher is None:
            deltas = self.teacher_deltas(scene, env, instr)
            teacher = ToyBackbone(
                weights=[w + d for w, d in zip(self.backbone.weights, deltas)],
                biases=self.backbone.biases)
            self._teachers[key] = teacher
        return np.argmax(forward_logits(teacher, None, inputs), axis=1)


def _orthonormal_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    if n > d:
        raise ValueError(f"cannot place {n} orthonormal directions in {d} dims")
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return q.T.copy()


def _low_rank(rng: np.random.Generator, dims: tuple[int, int], rank: int,
              scale: float) -> np.ndarray:
    a, b = dims
    u = rng.standard_normal((a, rank))
    v = rng.standard_normal((rank, b))
    m = u @ v
    return scale * np.sqrt(2.0 / b) * m / np.sqrt(rank * a)


def gen_stream(n_scenes: int, n_envs: int, n_tasks: int, seed: int,
               n_instr: int = 0) -> list[TaskDescriptor]:
    """Pseudorandom order over distinct (scene, env) pairs, seed-deterministic."""
    capacity = n_scenes * n_envs
    if n_tasks > capacity:
        raise ValueError(
            f"stream of {n_tasks} tasks exceeds the {n_scenes} x {n_envs} "
            f"= {capacity} distinct scenario capacity")
    rng = np.random.default_rng([seed, _TAG_STREAM])
    order = rng.permutation(capacity)[:n_tasks]
    tasks = []
    for i, flat in enumerate(order):
        instr = int(rng.integers(n_instr)) if n_instr > 0 else None
        tasks.append(TaskDescriptor(index=i, scene=int(flat) // n_envs,
                                    env=int(flat) % n_envs, instr=instr))
    return tasks


def gen_episode(world: World, task: TaskDescriptor, episode_idx: int,
                split: int = 0) -> SyntheticEpisode:
    """Deterministic episode for (task, index, split); split 0 train, 1 test.

    Observation features are scene-center + environment-offset + Gaussian
    noise; actions are teacher argmax labels, truncated at the first STOP.
    Episodes whose teacher never moves forward are redrawn (bounded retries)
    so reference paths always have positive length.
    """
    cfg = world.cfg
    for attempt in range(64):
        rng = np.random.default_rng(
            [cfg.seed, _TAG_EPISODE, task.index, episode_idx, split, attempt])
        center = world.scene_centers[task.scene] + world.env_offsets[task.env]
        # escalate exploration noise on redraws so a teacher that is inert at
        # the cluster center still yields moving episodes eventually
        noise = cfg.feature_noise * (1.0 + attempt / 16.0)
        obs = center + noise * rng.standard_normal((cfg.horizon, cfg.d_f))
        instr = cfg.instr_scale * rng.standard_normal(cfg.d_f) / np.sqrt(cfg.d_f)
        if cfg.n_instr > 0 and task.instr is not None:
            instr = instr + world.instr_offsets[task.instr]
        inputs = np.hstack([obs, np.tile(instr, (cfg.horizon, 1))])
        actions = world.teacher_actions(task.scene, task.env, task.instr, inputs)
        stops = np.flatnonzero(actions == STOP)
        n_steps = int(stops[0]) + 1 if stops.size else cfg.horizon
        if np.any(actions[:n_steps] == FORWARD):
            return SyntheticEpisode(obs=obs[:n_steps], instr=instr,
                                    actions=actions[:n_steps],
                                    scene=task.scene, env=task.env,
                                    instr_type=task.instr)
    raise RuntimeError(
        f"could not draw a moving episode for task {task.index} "
        f"(scene {task.scene}, env {task.env}) in 64 attempts")


def gen_task_data(world: World, task: TaskDescriptor, n_episodes: int,
                  split: int = 0) -> list[SyntheticEpisode]:
    return [gen_episode(world, task, i, split) for i in range(n_episodes)]


def rollout_positions(actions: np.ndarray, step_length: float = 1.0,
                      turn_degrees: float = 15.0) -> np.ndarray:
    """Map an action sequence to 2-D positions (turtle kinematics).

    Returns (n+1, 2) positions including the start at the origin; the walk
    ends at the first STOP. Headings and positions are running sums that
    start from the origin's 0.0, so ``np.cumsum`` adds in the order of a
    step-by-step walk and gives its bits.
    """
    actions = np.asarray(actions)
    stops = np.flatnonzero(actions == STOP)
    if stops.size:
        actions = actions[:int(stops[0])]
    turn = np.deg2rad(turn_degrees)
    turns = np.zeros(len(actions) + 1)
    turns[1:][actions == LEFT] = turn
    turns[1:][actions == RIGHT] = -turn
    heading = np.cumsum(turns)[1:]
    forward = actions == FORWARD
    moves = np.zeros((len(actions) + 1, 2))
    moves[1:, 0][forward] = step_length * np.cos(heading[forward])
    moves[1:, 1][forward] = step_length * np.sin(heading[forward])
    return np.cumsum(moves, axis=0)

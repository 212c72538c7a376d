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
# episodes drawn and labelled at a time: enough to share each teacher pass,
# few enough that a batch's arrays add little to peak memory
EPISODE_CHUNK = 32


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
        h = h @ w_eff.T
        h += b
        if l < n_layers - 1:
            np.tanh(h, out=h)
    return h


@dataclass
class SyntheticEpisode:
    obs: np.ndarray           # (n_steps, d_f)
    actions: np.ndarray       # (n_steps,) teacher labels, ends at STOP or horizon
    inputs: np.ndarray        # (n_steps, 2 d_f): (obs, instr) per step

    @property
    def n_steps(self) -> int:
        return len(self.actions)


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

        def factors() -> list[tuple[np.ndarray, np.ndarray]]:
            return [(rng.standard_normal((a, cfg.teacher_rank)),
                     rng.standard_normal((cfg.teacher_rank, b)))
                    for a, b in self.backbone.layer_dims]

        # each teacher perturbation is kept as the rank-r factors (u, v) of
        # its layers, r (a + b) floats instead of a b, and expanded only when
        # a scenario's teacher is built. Part -> one factor list per index
        self.teacher_factors = {
            "shared": [factors()],
            "scene": [factors() for _ in range(cfg.n_scenes)],
            "env": [factors() for _ in range(cfg.n_envs)],
            "instr": [factors() for _ in range(n_q)]}
        # the (scene, env, instr) key last labelled and its teacher, the
        # backbone with the teacher's delta added. Every caller labels one
        # scenario's chunks in a row, so the entry is rebuilt once per task
        # and memory does not grow with the scenarios a run has seen
        self._teacher_key, self._teacher = None, None

    def teacher_perturbation(self, part: str, index: int) -> list[np.ndarray]:
        """Per-layer dense matrices of one perturbation: ``part`` is
        "shared", "scene", "env" or "instr"."""
        scale = getattr(self.cfg, f"teacher_{part}_scale")
        return [_low_rank(u, v, scale) for u, v in self.teacher_factors[part][index]]

    def teacher_deltas(self, scene: int, env: int,
                       instr: int | None = None) -> list[np.ndarray]:
        parts = [("shared", 0), ("scene", scene), ("env", env)]
        if self.cfg.n_instr > 0 and instr is not None:
            parts.append(("instr", instr))
        deltas = self.teacher_perturbation(*parts[0])
        for part in parts[1:]:   # summed left to right: shared + scene + env + instr
            deltas = [d + p for d, p in zip(deltas, self.teacher_perturbation(*part))]
        return deltas

    def teacher_actions(self, scene: int, env: int, instr: int | None,
                        inputs: np.ndarray) -> np.ndarray:
        key = (scene, env, instr)
        if key != self._teacher_key:
            deltas = self.teacher_deltas(scene, env, instr)
            self._teacher_key, self._teacher = key, ToyBackbone(
                weights=[w + d for w, d in zip(self.backbone.weights, deltas)],
                biases=self.backbone.biases)
        return np.argmax(forward_logits(self._teacher, None, inputs), axis=-1)


def _orthonormal_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    if n > d:
        raise ValueError(f"cannot place {n} orthonormal directions in {d} dims")
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return q.T.copy()


def _low_rank(u: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """The dense (a, b) perturbation of factors u (a, rank) and v (rank, b),
    evaluated in this order: reassociating it changes the bits."""
    (a, rank), b = u.shape, v.shape[1]
    return scale * np.sqrt(2.0 / b) * (u @ v) / np.sqrt(rank * a)


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


def gen_episode(world: World, task: TaskDescriptor, indices: list[int] | range,
                split: int = 0) -> list[SyntheticEpisode]:
    """Deterministic episodes for (task, index, split) per index; split 0 train, 1 test.

    Observation features are scene-center + environment-offset + Gaussian
    noise; actions are teacher argmax labels, truncated at the first STOP.
    Episodes whose teacher never moves forward are redrawn (bounded retries)
    so reference paths always have positive length; one teacher pass labels
    each attempt's batch.
    """
    cfg = world.cfg
    h, d = cfg.horizon, cfg.d_f
    center = world.scene_centers[task.scene] + world.env_offsets[task.env]
    # the 32-bit words default_rng reads from [seed, tag, task, i, split, attempt]
    prefix = [cfg.seed >> s & 0xFFFFFFFF for s in range(
        0, max(cfg.seed.bit_length(), 1), 32)] + [_TAG_EPISODE, task.index]
    episodes, pending = {}, list(indices)
    for attempt in range(64):
        # one draw per episode: its obs noise, then its instr noise
        draws = np.empty((len(pending), (h + 1) * d))
        for row, i in zip(draws, pending):
            key = np.array(prefix + [i, split, attempt], dtype=np.uint32)
            np.random.default_rng(key).standard_normal(out=row)
        inputs = np.empty((len(pending), h, 2 * d))   # (obs, instr) per step
        # escalate exploration noise on redraws so a teacher that is inert at
        # the cluster center still yields moving episodes eventually
        noise = cfg.feature_noise * (1.0 + attempt / 16.0)
        obs = np.multiply(draws[:, :-d].reshape(-1, h, d), noise, out=inputs[..., :d])
        obs += center
        instr = cfg.instr_scale * draws[:, -d:] / np.sqrt(d)
        if cfg.n_instr > 0 and task.instr is not None:
            instr = instr + world.instr_offsets[task.instr]
        inputs[..., d:] = instr[:, None]
        actions = world.teacher_actions(task.scene, task.env, task.instr, inputs)
        walking = np.logical_and.accumulate(actions != STOP, axis=-1)
        moving = (walking & (actions == FORWARD)).any(axis=-1)
        n_steps = np.minimum(walking.sum(axis=-1) + 1, h)
        moved = [i for i, m in zip(pending, moving) if m]
        pending = [i for i, m in zip(pending, moving) if not m]
        if pending:   # the moved rows alone outlive this attempt
            inputs, actions, n_steps = (
                a[moving] for a in (inputs, actions, n_steps))
        for j, (i, n) in enumerate(zip(moved, n_steps)):
            episodes[i] = SyntheticEpisode(obs=inputs[j, :n, :d],
                                           actions=actions[j, :n],
                                           inputs=inputs[j, :n])
        if not pending:
            return [episodes[i] for i in indices]
    raise RuntimeError(
        f"could not draw a moving episode for task {task.index} "
        f"(scene {task.scene}, env {task.env}) in 64 attempts")


def gen_task_data(world: World, task: TaskDescriptor, n_episodes: int,
                  split: int = 0) -> list[SyntheticEpisode]:
    return [ep for s in range(0, n_episodes, EPISODE_CHUNK) for ep in gen_episode(
        world, task, range(s, min(s + EPISODE_CHUNK, n_episodes)), split)]


def walk_steps(actions: np.ndarray) -> np.ndarray:
    """Actions before the first STOP in each row (all of a row without one)."""
    return np.logical_and.accumulate(actions != STOP, axis=-1).sum(axis=-1)


def rollout_positions(actions: np.ndarray, step_length: float = 1.0,
                      turn_degrees: float = 15.0) -> np.ndarray:
    """Map one (n,) action row or a (k, n) stack to (..., n+1, 2) positions
    from the origin (turtle kinematics); a row's walk ends at its first STOP
    and its later positions repeat the last one, so rows stack padded with
    STOP. Headings and positions are running sums from the origin's 0.0, so
    ``np.cumsum`` adds in the order of a step-by-step walk and gives its bits.
    """
    actions = np.asarray(actions)
    walking = np.logical_and.accumulate(actions != STOP, axis=-1)
    turn = np.deg2rad(turn_degrees)
    turns = np.zeros(actions.shape[:-1] + (actions.shape[-1] + 1,))
    turns[..., 1:][walking & (actions == LEFT)] = turn
    turns[..., 1:][walking & (actions == RIGHT)] = -turn
    heading = np.cumsum(turns, axis=-1)[..., 1:]
    forward = walking & (actions == FORWARD)
    moves = np.zeros(turns.shape + (2,))
    moves[..., 1:, 0][forward] = step_length * np.cos(heading[forward])
    moves[..., 1:, 1][forward] = step_length * np.sin(heading[forward])
    return np.cumsum(moves, axis=-2)

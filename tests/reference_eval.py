"""The per-episode evaluation that the chunked, grouped one replaced.

Kept only as the reference ``test_eval_path.py`` compares the library with:
every episode is drawn and labelled on its own, retrieval rebuilds every
centroid and takes a fresh cosine per key on each query, every episode gets
its own delta and forward pass, positions come from a step-by-step turtle
walk, and each metric scores one episode record at a time.
"""

from __future__ import annotations

import numpy as np

from tucker_adapters.adapters import Selection
from tucker_adapters.metrics import EpisodeRecord, TaskScore
from tucker_adapters.tasks import (
    _TAG_EPISODE,
    FORWARD,
    LEFT,
    RIGHT,
    STOP,
    SyntheticEpisode,
    forward_logits,
)
from tucker_adapters.tensor_ops import EPS_NORM


def cosine_sim(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine_sim dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < EPS_NORM or nv < EPS_NORM:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(u @ v / (nu * nv))


def reference_gen_episode(world, task, episode_idx, split=0):
    """One episode, drawn and labelled alone: the library's ``gen_episode``
    for the single index ``episode_idx``."""
    cfg = world.cfg
    for attempt in range(64):
        rng = np.random.default_rng(
            [cfg.seed, _TAG_EPISODE, task.index, episode_idx, split, attempt])
        center = world.scene_centers[task.scene] + world.env_offsets[task.env]
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
            return SyntheticEpisode(obs=inputs[:n_steps, :cfg.d_f],
                                    actions=actions[:n_steps],
                                    inputs=inputs[:n_steps])
    raise RuntimeError(
        f"could not draw a moving episode for task {task.index} "
        f"(scene {task.scene}, env {task.env}) in 64 attempts")


def reference_rollout_positions(actions, step_length=1.0, turn_degrees=15.0):
    pos = np.zeros(2)
    heading = 0.0
    out = [pos.copy()]
    for act in actions:
        if act == STOP:
            break
        if act == LEFT:
            heading += np.deg2rad(turn_degrees)
        elif act == RIGHT:
            heading -= np.deg2rad(turn_degrees)
        elif act == FORWARD:
            pos = pos + step_length * np.array([np.cos(heading), np.sin(heading)])
        out.append(pos.copy())
    return np.array(out)


def reference_tl(rec):
    segs = np.diff(rec.trajectory, axis=0)
    return float(np.sum(np.linalg.norm(segs, axis=1)))


def reference_success_rate(rec):
    return int(np.linalg.norm(rec.trajectory[-1] - rec.goal) <= rec.epsilon)


def reference_oracle_success(rec):
    d = np.linalg.norm(rec.trajectory - rec.goal, axis=1)
    return int(np.min(d) <= rec.epsilon)


def reference_spl(rec, literal=False):
    sr = reference_success_rate(rec)
    if literal:
        return sr * reference_tl(rec) / rec.tl_ref
    return sr * rec.tl_ref / max(reference_tl(rec), rec.tl_ref)


def reference_score_task(task, records, spl_literal=False):
    return TaskScore(
        task=task,
        sr=float(np.mean([reference_success_rate(r) for r in records])),
        spl=float(np.mean([reference_spl(r, literal=spl_literal) for r in records])),
        osr=float(np.mean([reference_oracle_success(r) for r in records])),
    )


def _argmax_key(query, centroids):
    best_key, best_sim = None, -np.inf
    for key in sorted(centroids):
        sim = cosine_sim(query, centroids[key])
        if sim > best_sim:
            best_key, best_sim = key, sim
    return best_key


def reference_search(store, query, pairs=None):
    if not store.scenes.ids or not store.envs.ids:
        raise ValueError("cannot search an empty feature store")
    scene = _argmax_key(query, {k: store.scenes.centroid(k)
                                for k in store.scenes.ids})
    env_ids = [k for k in store.envs.ids if pairs is None or (scene, k) in pairs]
    if not env_ids:
        raise ValueError(f"no environment is paired with scene {scene}")
    env = _argmax_key(query, {k: store.envs.centroid(k) for k in env_ids})
    return scene, env


def reference_deltas(state, scene, env, instr):
    sel = Selection(scene=scene, env=env, instr=instr,
                    task=state.pair_to_task.get((scene, env), 0))
    return [ad.delta(sel) for ad in state.adapters]


def reference_policy_actions(backbone, deltas, episode):
    logits = forward_logits(backbone, deltas, episode.inputs)
    actions = np.argmax(logits, axis=1)
    stops = np.flatnonzero(actions == STOP)
    if stops.size:
        actions = actions[:int(stops[0]) + 1]
    return actions


def reference_evaluate_task(world, state, task, n_episodes, oracle_ids=False):
    """(TaskScore, per-episode records) the per-episode way."""
    cfg = state.cfg
    # retrieve trained pairs only when each scenario's expert is its own task's
    pairs = set(state.pair_to_task) if state.adapters[0].pairs_only else None
    records = []
    for i in range(n_episodes):
        ep = reference_gen_episode(world, task, i, split=1)
        if oracle_ids:
            scene, env = task.scene, task.env
        else:
            scene, env = reference_search(state.store, ep.obs[0], pairs)
        deltas = reference_deltas(state, scene, env, task.instr)
        predicted = reference_policy_actions(world.backbone, deltas, ep)
        wc = world.cfg
        ref = reference_rollout_positions(ep.actions, wc.step_length,
                                          wc.turn_degrees)
        pred = reference_rollout_positions(predicted, wc.step_length,
                                           wc.turn_degrees)
        tl_ref = float(np.sum(np.linalg.norm(np.diff(ref, axis=0), axis=1)))
        records.append(EpisodeRecord(trajectory=pred, goal=ref[-1],
                                     tl_ref=tl_ref, epsilon=cfg.epsilon))
    return (reference_score_task(task.index, records, spl_literal=cfg.spl_literal),
            records)

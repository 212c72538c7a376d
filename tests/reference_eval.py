"""The per-episode evaluation that the chunked, grouped one replaced.

Kept only as the reference ``test_eval_path.py`` compares the library with:
retrieval rebuilds every centroid and takes a fresh cosine per key on each
query, every episode gets its own delta and forward pass, and positions
come from a step-by-step turtle walk.
"""

from __future__ import annotations

import numpy as np

from tucker_adapters.adapters import Selection
from tucker_adapters.metrics import EpisodeRecord, score_task
from tucker_adapters.tasks import FORWARD, LEFT, RIGHT, STOP, forward_logits, gen_episode
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


def _argmax_key(query, centroids):
    best_key, best_sim = None, -np.inf
    for key in sorted(centroids):
        sim = cosine_sim(query, centroids[key])
        if sim > best_sim:
            best_key, best_sim = key, sim
    return best_key


def reference_search(store, query, pairs=None):
    if not store.scene_ids or not store.env_ids:
        raise ValueError("cannot search an empty feature store")
    scene = _argmax_key(query, {k: store.scene_centroid(k) for k in store.scene_ids})
    env_ids = [k for k in store.env_ids if pairs is None or (scene, k) in pairs]
    if not env_ids:
        raise ValueError(f"no environment is paired with scene {scene}")
    env = _argmax_key(query, {k: store.env_centroid(k) for k in env_ids})
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


def reference_evaluate_task(world, state, task, n_episodes, cfg,
                            oracle_ids=False):
    """(TaskScore, per-episode records) the per-episode way."""
    records = []
    for i in range(n_episodes):
        ep = gen_episode(world, task, i, split=1)
        if oracle_ids:
            scene, env = task.scene, task.env
        else:
            scene, env = reference_search(state.store, ep.obs[0],
                                          state.lookup_pairs)
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
    return score_task(task.index, records, spl_literal=cfg.spl_literal), records

"""Task streams, synthetic episodes, and the frozen toy backbone."""

import numpy as np
import pytest

from tucker_adapters.tasks import (
    FORWARD,
    STOP,
    SyntheticEpisode,
    TaskDescriptor,
    World,
    WorldConfig,
    forward_logits,
    gen_episode,
    gen_stream,
    gen_task_data,
    rollout_positions,
)


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig(seed=123, n_scenes=4, n_envs=3))


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def test_stream_full_grid_is_permutation_complete():
    tasks = gen_stream(5, 4, 20, seed=0)
    pairs = {(t.scene, t.env) for t in tasks}
    assert len(tasks) == 20
    assert pairs == {(s, e) for s in range(5) for e in range(4)}


def test_stream_single_task():
    tasks = gen_stream(3, 3, 1, seed=4)
    assert len(tasks) == 1
    assert 0 <= tasks[0].scene < 3 and 0 <= tasks[0].env < 3


def test_stream_seed_determinism_and_variation():
    a = gen_stream(5, 4, 20, seed=7)
    b = gen_stream(5, 4, 20, seed=7)
    c = gen_stream(5, 4, 20, seed=8)
    assert [(t.scene, t.env) for t in a] == [(t.scene, t.env) for t in b]
    assert [(t.scene, t.env) for t in a] != [(t.scene, t.env) for t in c]


def test_stream_capacity_error():
    with pytest.raises(ValueError, match="capacity"):
        gen_stream(2, 2, 5, seed=0)


def test_stream_instruction_indices():
    tasks = gen_stream(3, 3, 6, seed=1, n_instr=2)
    assert all(t.instr in (0, 1) for t in tasks)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

def test_episode_deterministic(world):
    task = TaskDescriptor(index=0, scene=1, env=2)
    a = gen_episode(world, task, 3)
    b = gen_episode(world, task, 3)
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.instr, b.instr)


def test_episode_splits_differ(world):
    task = TaskDescriptor(index=0, scene=1, env=2)
    assert not np.array_equal(gen_episode(world, task, 0, split=0).obs,
                              gen_episode(world, task, 0, split=1).obs)


def test_episode_always_moves(world):
    for idx in range(20):
        ep = gen_episode(world, TaskDescriptor(index=2, scene=0, env=0), idx)
        assert np.any(ep.actions == FORWARD)
        assert ep.obs.shape == (ep.n_steps, world.cfg.d_f)


def test_episode_features_cluster_by_task(world):
    # centroid of each task's features should sit near its own generating
    # center, much nearer than to any other task's center
    for task in [TaskDescriptor(index=0, scene=0, env=1),
                 TaskDescriptor(index=1, scene=2, env=0)]:
        eps = gen_task_data(world, task, 100)
        centroid = np.mean(np.vstack([ep.obs for ep in eps]), axis=0)
        own = world.scene_centers[task.scene] + world.env_offsets[task.env]
        assert np.linalg.norm(centroid - own) < 3 * world.cfg.feature_noise
        for s in range(world.cfg.n_scenes):
            for e in range(world.cfg.n_envs):
                if (s, e) != (task.scene, task.env):
                    other = world.scene_centers[s] + world.env_offsets[e]
                    assert (np.linalg.norm(centroid - own)
                            < np.linalg.norm(centroid - other))


def test_degenerate_teacher_ignores_hierarchy():
    cfg = WorldConfig(seed=5, n_scenes=3, n_envs=2, teacher_scene_scale=0.0,
                      teacher_env_scale=0.0)
    world = World(cfg)
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((8, 2 * cfg.d_f))
    a = world.teacher_actions(0, 0, None, inputs)
    b = world.teacher_actions(2, 1, None, inputs)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Backbone forward
# ---------------------------------------------------------------------------

def test_forward_zero_delta_matches_frozen(world):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2 * world.cfg.d_f))
    deltas = [np.zeros_like(w) for w in world.backbone.weights]
    np.testing.assert_array_equal(forward_logits(world.backbone, deltas, x),
                                  forward_logits(world.backbone, None, x))


def test_forward_merged_vs_separate_delta(world):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 2 * world.cfg.d_f))
    deltas = [0.01 * rng.standard_normal(w.shape) for w in world.backbone.weights]
    merged = World(world.cfg)
    merged.backbone.weights = [w + d for w, d in zip(world.backbone.weights, deltas)]
    np.testing.assert_allclose(
        forward_logits(world.backbone, deltas, x),
        forward_logits(merged.backbone, None, x), atol=1e-12)


def test_forward_single_layer_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    from tucker_adapters.tasks import ToyBackbone
    w = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    bb = ToyBackbone(weights=[w], biases=[b])
    x = rng.standard_normal(6)
    np.testing.assert_allclose(forward_logits(bb, None, x)[0], w @ x + b,
                               atol=1e-12)


def test_forward_shape_error(world):
    with pytest.raises(ValueError, match="layer 0"):
        forward_logits(world.backbone, None, np.zeros(3))


# ---------------------------------------------------------------------------
# Kinematics and dataset IO
# ---------------------------------------------------------------------------

def test_rollout_straight_line():
    pos = rollout_positions(np.array([FORWARD, FORWARD, FORWARD]), step_length=2.0)
    np.testing.assert_allclose(pos[-1], [6.0, 0.0], atol=1e-12)


def test_rollout_stops_at_stop():
    pos = rollout_positions(np.array([FORWARD, STOP, FORWARD, FORWARD]))
    np.testing.assert_allclose(pos[-1], [1.0, 0.0], atol=1e-12)


def test_rollout_full_left_turn_square():
    # four forwards with 90-degree lefts trace a unit square back to origin
    acts = []
    for _ in range(4):
        acts += [FORWARD] + [1] * 6  # six 15-degree lefts = 90 degrees
    pos = rollout_positions(np.array(acts))
    np.testing.assert_allclose(pos[-1], [0.0, 0.0], atol=1e-9)

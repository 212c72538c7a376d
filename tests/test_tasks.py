"""Task streams, synthetic episodes, and the frozen toy backbone."""

import tracemalloc

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
    [a] = gen_episode(world, task, [3])
    [b] = gen_episode(world, task, [3])
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.inputs, b.inputs)


def test_episode_splits_differ(world):
    task = TaskDescriptor(index=0, scene=1, env=2)
    assert not np.array_equal(gen_episode(world, task, [0], split=0)[0].obs,
                              gen_episode(world, task, [0], split=1)[0].obs)


def test_episode_always_moves(world):
    for ep in gen_episode(world, TaskDescriptor(index=2, scene=0, env=0),
                          range(20)):
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


def test_last_teacher_labels_as_the_fresh_sum(world):
    """Labelling scenarios A, B, A, C in turn rebuilds the one kept teacher
    on each change, and every label is the argmax of the backbone with the
    teacher's deltas passed separately."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2 * world.cfg.d_f))
    for key in [(0, 0), (2, 1), (0, 0), (3, 2)]:
        fresh = forward_logits(world.backbone, world.teacher_deltas(*key), x)
        for _ in range(2):
            assert np.array_equal(world.teacher_actions(*key, None, x),
                                  np.argmax(fresh, axis=1))
        # a stack is labelled slice by slice
        stacked = world.teacher_actions(*key, None, x.reshape(5, 8, -1))
        assert np.array_equal(stacked.reshape(-1), np.argmax(fresh, axis=1))


def test_the_world_keeps_one_teacher(world):
    """A world's memory does not grow with the scenarios it has labelled:
    after 12 it holds less than one teacher more than after 2."""
    x = np.random.default_rng(6).standard_normal((32, 2 * world.cfg.d_f))
    keys = [(s, e) for s in range(world.cfg.n_scenes) for e in range(world.cfg.n_envs)]
    one_teacher = sum(w.nbytes for w in world.backbone.weights)
    assert len(keys) == 12 and one_teacher == 66 * 1024
    tracemalloc.start()
    try:
        fresh = World(world.cfg)
        for key in keys[:2]:
            fresh.teacher_actions(*key, None, x)
        after_two = tracemalloc.get_traced_memory()[0]
        for key in keys[2:]:
            fresh.teacher_actions(*key, None, x)
        after_twelve = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_twelve - after_two < one_teacher


def test_world_draw_order_matches_reference():
    """Every teacher array comes from one ``default_rng([seed, 11])`` in a
    fixed order: the backbone, the scene, environment and instruction bases,
    then the shared, per-scene, per-environment and per-instruction
    perturbations, each layer by layer. The world keeps each perturbation as
    its factors; expanded, each is byte for byte the dense reference, and so
    is every scenario's teacher delta, summed shared + scene + env + instr."""
    cfg = WorldConfig(seed=9, d_f=8, hidden=6, n_scenes=3, n_envs=2, n_instr=2,
                      scene_scale=1.7, env_scale=0.9,
                      teacher_rank=2, teacher_shared_scale=0.7,
                      teacher_scene_scale=1.1, teacher_env_scale=1.3,
                      teacher_instr_scale=0.2)
    world = World(cfg)
    rng = np.random.default_rng([cfg.seed, 11])
    dims = [(cfg.hidden, 2 * cfg.d_f), (4, cfg.hidden)]
    w1 = rng.normal(0.0, np.sqrt(2.0 / (2 * cfg.d_f)), size=dims[0])
    w2 = rng.normal(0.0, np.sqrt(2.0 / cfg.hidden), size=dims[1])
    bases = [scale * np.linalg.qr(rng.standard_normal((cfg.d_f, n)))[0].T
             for n, scale in ((cfg.n_scenes, cfg.scene_scale),
                              (cfg.n_envs, cfg.env_scale), (cfg.n_instr, 1.0))]

    def low_rank(scale):
        out = []
        for a, b in dims:
            m = rng.standard_normal((a, 2)) @ rng.standard_normal((2, b))
            out.append(scale * np.sqrt(2.0 / b) * m / np.sqrt(2 * a))
        return out

    counts = {"shared": 1, "scene": cfg.n_scenes, "env": cfg.n_envs,
              "instr": cfg.n_instr}
    scales = {"shared": 0.7, "scene": 1.1, "env": 1.3, "instr": 0.2}
    reference = {part: [low_rank(scales[part]) for _ in range(n)]
                 for part, n in counts.items()}
    assert all(np.array_equal(e, a) for e, a in zip(
        [w1, w2, *bases], [*world.backbone.weights, world.scene_centers,
                           world.env_offsets, world.instr_offsets], strict=True))

    def same_bytes(expected, actual):
        return len(expected) == len(actual) and all(
            e.shape == a.shape and e.tobytes() == a.tobytes()
            for e, a in zip(expected, actual))

    assert all(same_bytes(reference[part][i], world.teacher_perturbation(part, i))
               for part, n in counts.items() for i in range(n))
    keys = [(s, e, q) for s in range(cfg.n_scenes) for e in range(cfg.n_envs)
            for q in (None, *range(cfg.n_instr))]
    for s, e, q in keys:
        parts = [reference["shared"][0], reference["scene"][s], reference["env"][e]]
        if q is not None:
            parts.append(reference["instr"][q])
        expected = [sum(layer[1:], layer[0]) for layer in zip(*parts)]
        assert same_bytes(expected, world.teacher_deltas(s, e, q)), (s, e, q)


def test_the_world_keeps_its_teacher_as_factors():
    """A world with 32 scenes and 32 environments keeps its 66 teacher
    perturbations as rank-2 factors: under 1 MB, where dense matrices would
    take about 4.5 MB (66 x 67.6 KB)."""
    World(WorldConfig(n_scenes=1, n_envs=1))   # numpy's first calls allocate caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = World(WorldConfig(n_scenes=32, n_envs=32))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, kept
    assert sum(map(len, world.teacher_factors.values())) == 66


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

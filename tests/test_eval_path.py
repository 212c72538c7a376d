"""The chunked, grouped evaluation path against the per-episode reference in
``reference_eval.py``: every position, retrieved pair and score must be
bitwise the same."""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_eval import (
    reference_evaluate_task,
    reference_rollout_positions,
    reference_search,
)

from tucker_adapters import pipeline
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.tasks import (
    World,
    forward_logits,
    gen_episode,
    gen_stream,
    rollout_positions,
)

# ---------------------------------------------------------------------------
# (a) rollout_positions
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(actions=st.lists(st.integers(-1, 4), max_size=40),
       step_length=st.one_of(st.just(1.0), st.just(0.0),
                             st.floats(-5.0, 5.0, allow_nan=False)),
       turn_degrees=st.one_of(st.just(15.0), st.just(0.0),
                              st.floats(-720.0, 720.0, allow_nan=False)))
def test_rollout_equals_step_by_step_walk(actions, step_length, turn_degrees):
    actions = np.array(actions, dtype=np.int64)
    got = rollout_positions(actions, step_length, turn_degrees)
    want = reference_rollout_positions(actions, step_length, turn_degrees)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# (b) FeatureStore.search with cached centroids
# ---------------------------------------------------------------------------

DIM = 3
# small integer features: centroid sums are exact, so insertion order cannot
# change a bit, and equal centroids (ties) are common
features = st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM)
entries = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), features),
                   min_size=1, max_size=12)


def _same_search(store, query, pairs):
    """Both searches return the same pair or both raise ValueError."""
    try:
        want = reference_search(store, query, pairs)
    except ValueError:
        with pytest.raises(ValueError):
            store.search(query, pairs)
        return
    got = store.search(query, pairs)
    assert got == want
    assert all(type(x) is int for x in got)


@settings(max_examples=150)
@given(data=entries, extra=entries, queries=st.lists(features, min_size=1, max_size=6),
       restrict=st.booleans(), order=st.randoms(use_true_random=False))
def test_cached_search_equals_reference(data, extra, queries, restrict, order):
    store = FeatureStore(DIM)
    for scene, env, f in data:
        store.add(scene, env, np.array(f, dtype=float))
    pairs = None
    if restrict:
        pairs = {(s, e) for s, e, _ in data[::2]}
    queries = [np.array(q, dtype=float) for q in queries]
    for q in queries:
        _same_search(store, q, pairs)

    # insertion-order invariance
    shuffled = list(data)
    order.shuffle(shuffled)
    other = FeatureStore(DIM)
    for scene, env, f in shuffled:
        other.add(scene, env, np.array(f, dtype=float))
    for q in queries:
        _same_search(other, q, pairs)
        try:
            want = store.search(q, pairs)
        except ValueError:
            continue
        assert other.search(q, pairs) == want

    # add after a search invalidates the cached centroids
    for scene, env, f in extra:
        store.add(scene, env, np.array(f, dtype=float))
        for q in queries:
            _same_search(store, q, pairs)

    # save/load round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.npz"
        store.save(path)
        back = FeatureStore.load(path)
    for q in queries:
        _same_search(back, q, pairs)


def test_duplicate_centroids_pick_the_lowest_id():
    store = FeatureStore(2)
    for scene in (3, 1, 2):
        store.add(scene, 5 - scene, np.array([1.0, 1.0]))
    assert store.search(np.array([1.0, 2.0])) == (1, 2)
    assert store.search(np.array([1.0, 2.0]), {(1, 4)}) == (1, 4)


# ---------------------------------------------------------------------------
# Forward pass, teacher and delta caches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def world():
    return World(ExperimentConfig(d_f=16, hidden=12, horizon=8).world_config())


def test_stacked_forward_equals_per_slice(world):
    rng = np.random.default_rng(4)
    deltas = [0.1 * rng.standard_normal(w.shape) for w in world.backbone.weights]
    for g, n in [(1, 1), (3, 1), (5, 8), (32, 7)]:
        x = rng.standard_normal((g, n, 2 * world.cfg.d_f))
        stacked = forward_logits(world.backbone, deltas, x)
        assert stacked.shape == (g, n, 4)
        for i in range(g):
            assert (stacked[i].tobytes()
                    == forward_logits(world.backbone, deltas, x[i]).tobytes())


def test_cached_teacher_equals_fresh_sum(world):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2 * world.cfg.d_f))
    for key in [(0, 0), (2, 1), (0, 0), (4, 3)]:
        fresh = forward_logits(world.backbone, world.teacher_deltas(*key), x)
        for _ in range(2):
            assert np.array_equal(world.teacher_actions(*key, None, x),
                                  np.argmax(fresh, axis=1))


def test_delta_provider_computes_each_triple_once():
    cfg = ExperimentConfig(n_scenes=3, n_envs=2, n_tasks=2, d_f=16, hidden=12,
                           horizon=8)
    state = pipeline.init_state(cfg, World(cfg.world_config()))
    provide = pipeline.delta_provider(state)
    with mock.patch.object(type(state.adapters[0]), "delta",
                           autospec=True, side_effect=type(state.adapters[0]).delta) as spy:
        first = provide(1, 0, None)
        assert provide(1, 0, None) is first
        provide(2, 1, None)
    assert spy.call_count == 2 * len(state.adapters)


# ---------------------------------------------------------------------------
# (c) evaluate_task against the per-episode reference
# ---------------------------------------------------------------------------

KINDS = {
    "tucker4": {},
    "tucker3": {},
    "tucker5": {"n_instr": 2, "ranks": (2, 2, 2, 3, 3)},
    "lora": {},
    "lora_per_task": {"lam1": 0.0, "lam2": 0.0, "lam3": 0.0},
    "moe": {},
    "abc": {},
}
# a stop bias that ends most held-out episodes before the horizon, so that
# chunks hold episodes of several lengths (default streams run the horizon)
STOP_BIAS = 0.5


def eval_config(kind):
    # noisy features make retrieval miss, so chunks hold several pairs
    return ExperimentConfig(adapter_kind=kind, n_scenes=3, n_envs=2, n_tasks=4,
                            d_f=16, hidden=12, horizon=8, train_episodes=8,
                            epochs=1, feature_noise=0.6, seed=9, **KINDS[kind])


@pytest.fixture(scope="module")
def trained():
    """(cfg, world, state, stream) per (kind, stop bias), trained on demand."""
    cache = {}

    def get(kind, stop_bias):
        if (kind, stop_bias) not in cache:
            cfg = eval_config(kind)
            wcfg = cfg.world_config()
            if stop_bias is not None:
                wcfg = dataclasses.replace(wcfg, stop_bias=stop_bias)
            world = World(wcfg)
            stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                                n_instr=cfg.n_instr)
            state = pipeline.init_state(cfg, world)
            for task in stream:
                pipeline.train_task(state, world, task)
            cache[kind, stop_bias] = (cfg, world, state, stream)
        return cache[kind, stop_bias]

    return get


def _evaluate(world, state, task, n_episodes, cfg, oracle_ids):
    """evaluate_task's score and the records it scored."""
    seen, real = [], pipeline.score_task

    def keep(index, records, **kw):
        seen.append(records)
        return real(index, records, **kw)

    with mock.patch.object(pipeline, "score_task", side_effect=keep):
        score = pipeline.evaluate_task(world, pipeline.delta_provider(state),
                                       state.store, task, n_episodes, cfg,
                                       oracle_ids=oracle_ids,
                                       pairs=state.lookup_pairs)
    return score, seen[0]


@settings(max_examples=40)
@given(kind=st.sampled_from(sorted(KINDS)),
       stop_bias=st.sampled_from([None, STOP_BIAS]),
       oracle_ids=st.booleans(), n_episodes=st.integers(1, 75),
       task_idx=st.integers(0, 3))
def test_grouped_eval_equals_per_episode_reference(trained, kind, stop_bias,
                                                   oracle_ids, n_episodes, task_idx):
    cfg, world, state, stream = trained(kind, stop_bias)
    task = stream[task_idx]
    score, records = _evaluate(world, state, task, n_episodes, cfg, oracle_ids)
    want, want_records = reference_evaluate_task(world, state, task, n_episodes,
                                                 cfg, oracle_ids)
    assert (score.sr, score.spl, score.osr) == (want.sr, want.spl, want.osr)
    assert len(records) == len(want_records) == n_episodes
    for got, ref in zip(records, want_records):
        assert got.trajectory.tobytes() == ref.trajectory.tobytes()
        assert got.goal.tobytes() == ref.goal.tobytes()
        assert got.tl_ref == ref.tl_ref


def test_one_forward_pass_per_pair_and_length_group(trained):
    cfg, world, state, stream = trained("tucker4", STOP_BIAS)
    task, n = stream[0], 70
    episodes = [gen_episode(world, task, i, split=1) for i in range(n)]
    groups = {(c, state.store.search(ep.obs[0]), ep.n_steps)
              for c in range(0, n, pipeline.EVAL_CHUNK)
              for ep in episodes[c:c + pipeline.EVAL_CHUNK]}
    # the case this test is for: several lengths and pairs in one chunk
    assert len({g[2] for g in groups if g[0] == 0}) > 1
    assert len({g[1] for g in groups if g[0] == 0}) > 1
    sizes = []
    real = pipeline.policy_actions

    def count(backbone, deltas, inputs):
        sizes.append(inputs.shape[0])
        return real(backbone, deltas, inputs)

    with mock.patch.object(pipeline, "policy_actions", side_effect=count):
        pipeline.evaluate_task(world, pipeline.delta_provider(state), state.store,
                               task, n, cfg)
    assert len(sizes) == len(groups)
    assert sum(sizes) == n

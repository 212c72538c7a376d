"""The batched generation and the chunked, grouped evaluation path against
the per-episode reference in ``reference_eval.py``: every episode, position,
retrieved pair and score must be bitwise the same."""

import dataclasses
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_eval import (
    cosine_sim,
    reference_evaluate_task,
    reference_gen_episode,
    reference_oracle_success,
    reference_rollout_positions,
    reference_score_task,
    reference_search,
    reference_spl,
    reference_success_rate,
    reference_tl,
)

from tucker_adapters import pipeline, retrieval
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.metrics import (
    EpisodeRecord,
    oracle_success,
    score_task,
    spl,
    success_rate,
)
from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.tasks import (
    EPISODE_CHUNK,
    FORWARD,
    STOP,
    TaskDescriptor,
    World,
    WorldConfig,
    forward_logits,
    gen_episode,
    gen_stream,
    rollout_positions,
    walk_steps,
)

# ---------------------------------------------------------------------------
# Batched episode generation
# ---------------------------------------------------------------------------


def small_world(**kw):
    return World(WorldConfig(d_f=16, hidden=12, n_scenes=3, n_envs=2,
                             horizon=8, seed=3, **kw))


def _same_episode(got, want):
    for name in ("obs", "actions", "inputs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# a stop bias above 0.5 or a negative forward bias makes the teacher stand
# still often, so that episodes are redrawn over several attempts
@settings(max_examples=60)
@given(stop_bias=st.sampled_from([-1.5, 0.5, 2.0, 3.0]),
       forward_bias=st.sampled_from([0.5, -1.0, -2.0]),
       n_instr=st.sampled_from([0, 2]), seed=st.integers(0, 3),
       scene=st.integers(0, 2), env=st.integers(0, 1),
       task_index=st.integers(0, 5), split=st.sampled_from([0, 1]),
       indices=st.lists(st.integers(0, 500), min_size=1, max_size=40))
def test_batched_episodes_equal_per_episode_reference(
        stop_bias, forward_bias, n_instr, seed, scene, env, task_index, split,
        indices):
    world = World(WorldConfig(d_f=16, hidden=12, n_scenes=3, n_envs=2,
                              horizon=8, n_instr=n_instr, stop_bias=stop_bias,
                              forward_bias=forward_bias, seed=seed))
    task = TaskDescriptor(index=task_index, scene=scene, env=env,
                          instr=n_instr - 1 if n_instr else None)
    try:
        want = [reference_gen_episode(world, task, i, split) for i in indices]
    except RuntimeError as exc:   # a teacher that stands still everywhere
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            gen_episode(world, task, indices, split)
        return
    episodes = gen_episode(world, task, indices, split)
    assert len(episodes) == len(indices)
    for got, ref in zip(episodes, want):
        _same_episode(got, ref)


def test_redrawn_batches_shrink_to_the_episodes_that_did_not_move():
    world = small_world(stop_bias=3.0)
    sizes, real = [], world.teacher_actions

    def count(scene, env, instr, inputs):
        sizes.append(len(inputs))
        return real(scene, env, instr, inputs)

    world.teacher_actions = count
    task = TaskDescriptor(index=1, scene=2, env=1)
    episodes = gen_episode(world, task, range(5, 45), split=1)
    assert sizes[0] == 40 and len(sizes) > 3
    assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[-1] < 40
    for i, ep in zip(range(5, 45), episodes):
        _same_episode(ep, reference_gen_episode(world, task, i, 1))


@pytest.mark.parametrize("kw", [{"stop_bias": 5.0}, {"forward_bias": -50.0}])
def test_an_episode_that_never_moves_raises_as_the_reference(kw):
    world = small_world(**kw)
    task = TaskDescriptor(index=4, scene=1, env=0)
    with pytest.raises(RuntimeError) as want:
        reference_gen_episode(world, task, 7, 1)
    with pytest.raises(RuntimeError) as got:
        gen_episode(world, task, [3, 7], 1)
    assert str(got.value) == str(want.value) == (
        "could not draw a moving episode for task 4 (scene 1, env 0) in 64 attempts")


def test_episode_keys_read_a_seed_past_32_bits_as_the_reference():
    world = small_world()
    world.cfg = dataclasses.replace(world.cfg, seed=2**40 + 3)
    task = TaskDescriptor(index=0, scene=0, env=1)
    for i, ep in zip([0, 9], gen_episode(world, task, [0, 9], 0)):
        _same_episode(ep, reference_gen_episode(world, task, i, 0))

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
    assert got.shape == (len(actions) + 1, 2)
    assert got[:len(want)].tobytes() == want.tobytes()
    # the walk has ended: the later positions repeat the last one
    assert (got[len(want):] == want[-1]).all()


HORIZON = 16
# a row of every length from 0 to the horizon, STOP-padded past its length;
# drawn actions include STOP, so a walk can also end mid-row
rows = st.lists(st.lists(st.integers(0, 3), min_size=HORIZON, max_size=HORIZON),
                min_size=HORIZON + 1, max_size=HORIZON + 1)


def _padded(drawn, first=None):
    stack = np.full((len(drawn), HORIZON), STOP)
    for n, row in enumerate(drawn):
        stack[n, :n] = row[:n]
        if first is not None:
            stack[n, 0] = first
    return stack


@settings(max_examples=60)
@given(predicted=rows, reference=rows,
       turn_degrees=st.sampled_from([15.0, 30.0, 7.5]),
       step_length=st.sampled_from([1.0, 0.25]),
       epsilon=st.sampled_from([0.5, 1.5, 3.0]), chunk=st.integers(1, 17),
       literal=st.booleans())
def test_stacked_rollouts_and_metrics_equal_per_episode_reference(
        predicted, reference, turn_degrees, step_length, epsilon, chunk, literal):
    predicted = _padded(predicted)
    # a reference walk moves: it starts with FORWARD
    reference = _padded(reference, first=FORWARD)
    reference[0, 1] = STOP
    positions = rollout_positions(predicted, step_length, turn_degrees)
    assert positions.shape == (HORIZON + 1, HORIZON + 1, 2)
    world = mock.Mock(cfg=WorldConfig(step_length=step_length,
                                      turn_degrees=turn_degrees))
    records = [pipeline.episode_record(world, reference[c:c + chunk],
                                       predicted[c:c + chunk], epsilon)
               for c in range(0, HORIZON + 1, chunk)]
    singles = []
    for j, (pred, ref) in enumerate(zip(predicted, reference)):
        walk = reference_rollout_positions(pred, step_length, turn_degrees)
        goal_walk = reference_rollout_positions(ref, step_length, turn_degrees)
        assert walk_steps(pred) == len(walk) - 1
        assert positions[j, :len(walk)].tobytes() == walk.tobytes()
        assert (positions[j, len(walk):] == walk[-1]).all()
        singles.append(EpisodeRecord(
            trajectory=walk, goal=goal_walk[-1], epsilon=epsilon,
            tl_ref=float(np.sum(np.linalg.norm(np.diff(goal_walk, axis=0), axis=1)))))
    got = {name: np.concatenate([fn(r) for r in records]) for name, fn in [
        ("sr", success_rate), ("osr", oracle_success),
        ("spl", lambda r: spl(r, literal=literal)),
        ("tl", lambda r: r.tl), ("tl_ref", lambda r: r.tl_ref)]}
    want = {"sr": [reference_success_rate(r) for r in singles],
            "osr": [reference_oracle_success(r) for r in singles],
            "spl": [reference_spl(r, literal=literal) for r in singles],
            "tl": [reference_tl(r) for r in singles],
            "tl_ref": [r.tl_ref for r in singles]}
    for name in want:
        assert got[name].tolist() == want[name], name
    # one definition: each metric of a single-episode record is the reference's
    for rec in singles:
        assert success_rate(rec) == reference_success_rate(rec)
        assert oracle_success(rec) == reference_oracle_success(rec)
        assert spl(rec, literal=literal) == reference_spl(rec, literal=literal)
    score = score_task(3, records, spl_literal=literal)
    ref_score = reference_score_task(3, singles, spl_literal=literal)
    assert (score.sr, score.spl, score.osr) == (ref_score.sr, ref_score.spl,
                                                 ref_score.osr)


@pytest.mark.parametrize("turn_degrees,horizon", [(15.0, 16), (15.0, 8)])
def test_cos_and_sin_agree_on_every_reachable_heading(turn_degrees, horizon):
    """A heading is a running sum of +-turn and 0.0 steps; the vector cos and
    sin give each one the bits of a lone call, wherever it sits in a batch."""
    turn = np.deg2rad(turn_degrees)
    level, reachable = {0.0}, {0.0}
    for _ in range(horizon):
        level = {float(np.float64(h) + t) for h in level for t in (0.0, turn, -turn)}
        reachable |= level
    headings = np.array(sorted(reachable))
    for fn in (np.cos, np.sin):
        alone = [fn(np.array([h]))[0] for h in headings]
        for offset in range(8):
            batch = fn(np.concatenate([np.zeros(offset), headings]))[offset:]
            assert batch.tolist() == alone


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


def _same_stacked_search(store, queries, pairs):
    """A search of the stacked queries returns the reference's pair of each
    row, or raises ValueError when the reference raises for any row."""
    try:
        want = [reference_search(store, q, pairs) for q in queries]
    except ValueError:
        with pytest.raises(ValueError):
            store.search(np.stack(queries), pairs)
        return
    got = store.search(np.stack(queries), pairs)
    assert got == want
    assert all(type(x) is int for pair in got for x in pair)


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
    _same_stacked_search(other, queries, pairs)

    # add after a search invalidates the cached centroids
    for scene, env, f in extra:
        store.add(scene, env, np.array(f, dtype=float))
        for q in queries:
            _same_search(store, q, pairs)
        _same_stacked_search(store, queries, pairs)

    # save/load round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.npz"
        store.save(path)
        back = FeatureStore.load(path)
    for q in queries:
        _same_search(back, q, pairs)
    _same_stacked_search(back, queries, pairs)


@settings(max_examples=60)
@given(dim=st.integers(2, 69), k=st.integers(1, 33), n_keys=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_similarities_equal_reference_bits(dim, k, n_keys, seed):
    """Every similarity of a stacked search has the bits of the one-pair
    reference, not only the argmax: a gemm rounds differently, but seldom
    enough to move a match."""
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for key in range(n_keys):
        for _ in range(3):
            store.add(key, 0, rng.standard_normal(dim))
    queries = rng.standard_normal((k, dim))
    got = store.scenes.similarities(queries, retrieval._norms(queries))
    want = [[cosine_sim(q, store.scenes.centroid(key)) for key in range(n_keys)]
            for q in queries]
    assert got.tobytes() == np.array(want).tobytes()


def test_duplicate_centroids_pick_the_lowest_id():
    store = FeatureStore(2)
    for scene in (3, 1, 2):
        store.add(scene, 5 - scene, np.array([1.0, 1.0]))
    assert store.search(np.array([1.0, 2.0])) == (1, 2)
    assert store.search(np.array([1.0, 2.0]), {(1, 4)}) == (1, 4)
    queries = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, 3.0]])
    assert store.search(queries) == [(1, 2)] * 3
    assert store.search(queries, {(1, 4), (1, 3)}) == [(1, 3)] * 3


# ---------------------------------------------------------------------------
# Forward pass and delta caches
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


def _evaluate(world, state, task, n_episodes, oracle_ids):
    """evaluate_task's score and the records it scored, one per episode."""
    seen, real = [], pipeline.score_task

    def keep(index, records, **kw):
        seen.append(records)
        return real(index, records, **kw)

    with mock.patch.object(pipeline, "score_task", side_effect=keep):
        score = pipeline.evaluate_task(world, state, task, n_episodes,
                                       oracle_ids=oracle_ids)
    # each chunk's stacked record, cut into its rows' own points
    return score, [EpisodeRecord(trajectory=rec.trajectory[j, :rec.n_points[j]],
                                 goal=rec.goal[j], tl_ref=rec.tl_ref[j],
                                 epsilon=rec.epsilon)
                   for rec in seen[0] for j in range(len(rec.trajectory))]


@settings(max_examples=40)
@given(kind=st.sampled_from(sorted(KINDS)),
       stop_bias=st.sampled_from([None, STOP_BIAS]),
       oracle_ids=st.booleans(), n_episodes=st.integers(1, 75),
       task_idx=st.integers(0, 3))
def test_grouped_eval_equals_per_episode_reference(trained, kind, stop_bias,
                                                   oracle_ids, n_episodes, task_idx):
    cfg, world, state, stream = trained(kind, stop_bias)
    task = stream[task_idx]
    score, records = _evaluate(world, state, task, n_episodes, oracle_ids)
    want, want_records = reference_evaluate_task(world, state, task, n_episodes,
                                                 oracle_ids)
    assert (score.sr, score.spl, score.osr) == (want.sr, want.spl, want.osr)
    assert len(records) == len(want_records) == n_episodes
    for got, ref in zip(records, want_records):
        assert got.trajectory.tobytes() == ref.trajectory.tobytes()
        assert got.goal.tobytes() == ref.goal.tobytes()
        assert got.tl_ref == ref.tl_ref


def test_one_forward_pass_per_pair_and_length_group(trained):
    cfg, world, state, stream = trained("tucker4", STOP_BIAS)
    task, n = stream[0], 70
    episodes = gen_episode(world, task, range(n), split=1)
    groups = {(c, state.store.search(ep.obs[0]), ep.n_steps)
              for c in range(0, n, EPISODE_CHUNK)
              for ep in episodes[c:c + EPISODE_CHUNK]}
    # the case this test is for: several lengths and pairs in one chunk
    assert len({g[2] for g in groups if g[0] == 0}) > 1
    assert len({g[1] for g in groups if g[0] == 0}) > 1
    sizes = []
    real = pipeline.policy_actions

    def count(backbone, deltas, inputs):
        sizes.append(inputs.shape[0])
        return real(backbone, deltas, inputs)

    with mock.patch.object(pipeline, "policy_actions", side_effect=count):
        pipeline.evaluate_task(world, state, task, n)
    assert len(sizes) == len(groups)
    assert sum(sizes) == n


def test_evaluate_task_computes_each_retrieved_pairs_deltas_once():
    cfg = ExperimentConfig(n_scenes=3, n_envs=2, n_tasks=2, d_f=16, hidden=12,
                           horizon=8, train_episodes=4, feature_noise=0.6)
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed)
    state = pipeline.init_state(cfg, world)
    for task in stream:
        pipeline.train_task(state, world, task)
    retrieved, search = set(), FeatureStore.search

    def remember(store, queries, pairs=None):
        found = search(store, queries, pairs)
        retrieved.update(found)
        return found

    cls = type(state.adapters[0])
    with mock.patch.object(FeatureStore, "search", autospec=True,
                           side_effect=remember) as searches, \
            mock.patch.object(cls, "delta", autospec=True,
                              side_effect=cls.delta) as deltas:
        pipeline.evaluate_task(world, state, stream[0], 70)
    # 70 episodes are three chunks, and between them they retrieve two pairs
    assert searches.call_count == 3
    assert retrieved == {(1, 1), (2, 1)}
    assert deltas.call_count == len(retrieved) * len(state.adapters)

"""Feature store centroids, cosine matching, and serialization."""

import numpy as np
import pytest

from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.tasks import TaskDescriptor, World, WorldConfig, gen_episode


# ---------------------------------------------------------------------------
# FeatureStore
# ---------------------------------------------------------------------------

def test_single_insertion_centroid():
    store = FeatureStore(3)
    v = np.array([1.0, 2.0, 3.0])
    store.add(0, 1, v)
    assert np.array_equal(store.scene_centroid(0), v)
    assert np.array_equal(store.env_centroid(1), v)


def test_two_insertions_mean():
    store = FeatureStore(2)
    store.add(0, 0, np.array([2.0, 0.0]))
    store.add(0, 0, np.array([0.0, 2.0]))
    np.testing.assert_allclose(store.scene_centroid(0), [1.0, 1.0])


def test_insertion_order_free():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((20, 4))
    a, b = FeatureStore(4), FeatureStore(4)
    for f in feats:
        a.add(0, 0, f)
    for f in feats[::-1]:
        b.add(0, 0, f)
    np.testing.assert_allclose(a.scene_centroid(0), b.scene_centroid(0),
                               atol=1e-12)


def test_centroid_equals_arithmetic_mean():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((33, 6))
    store = FeatureStore(6)
    for f in feats:
        store.add(2, 1, f)
    np.testing.assert_allclose(store.scene_centroid(2), feats.mean(axis=0),
                               atol=1e-12)


def test_dimension_check():
    store = FeatureStore(4)
    with pytest.raises(ValueError, match="shape"):
        store.add(0, 0, np.ones(5))


def test_search_self_match():
    rng = np.random.default_rng(2)
    store = FeatureStore(8)
    centroids = {}
    for s in range(3):
        for e in range(2):
            f = rng.standard_normal(8)
            store.add(s, e, f)
    q = store.scene_centroid(1) + 1e-9
    s, _ = store.search(q)
    assert s == 1


def test_search_singleton_store():
    store = FeatureStore(4)
    store.add(2, 3, np.array([1.0, 0.0, 0.0, 0.0]))
    assert store.search(np.array([0.0, 1.0, 1.0, 0.5])) == (2, 3)


def test_search_restricted_to_pairs():
    e1, e2, e3 = np.eye(3)
    store = FeatureStore(3)
    pairs = {(0, 0), (1, 1), (1, 0)}
    store.add(0, 0, e1)
    store.add(1, 1, e1 + e2)
    store.add(1, 0, e3 - e1)
    query = e1 + 0.1 * e2
    # scene 0 and environment 1 match best, but were never trained together
    assert store.search(query) == (0, 1)
    assert store.search(query, pairs) == (0, 0)
    with pytest.raises(ValueError, match="scene 0"):
        store.search(query, {(1, 1)})


def test_search_empty_store_error():
    with pytest.raises(ValueError, match="empty"):
        FeatureStore(4).search(np.ones(4))


@pytest.mark.parametrize("query,message", [
    (np.zeros(4), "undefined"),
    (np.array([1.0, np.nan, 0.0, 0.0]), "undefined"),
    (np.array([np.inf, 1.0, 0.0, 0.0]), "undefined"),
    (np.ones(5), "shape"),
], ids=["zero", "nan", "inf", "wrong-shape"])
def test_search_rejects_undefined_query(query, message):
    store = FeatureStore(4)
    store.add(0, 0, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=message):
        store.search(query)


def test_search_scale_invariant():
    rng = np.random.default_rng(3)
    store = FeatureStore(6)
    for s in range(4):
        store.add(s, s % 2, rng.standard_normal(6))
    q = rng.standard_normal(6)
    assert store.search(q) == store.search(123.0 * q)


def test_adding_less_similar_key_keeps_result():
    store = FeatureStore(3)
    q = np.array([1.0, 0.0, 0.0])
    store.add(0, 0, np.array([0.9, 0.1, 0.0]))
    before = store.search(q)
    store.add(5, 7, np.array([-1.0, 0.0, 0.0]))  # opposite direction
    assert store.search(q) == before


def test_tie_breaks_to_lowest_index():
    store = FeatureStore(2)
    v = np.array([1.0, 1.0])
    store.add(3, 9, v)
    store.add(1, 4, v.copy())
    assert store.search(v) == (1, 4)


def test_store_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    store = FeatureStore(5)
    for s in range(3):
        for _ in range(4):
            store.add(s, s % 2, rng.standard_normal(5))
    path = tmp_path / "store.npz"
    store.save(path)
    back = FeatureStore.load(path)
    assert back.dim == 5
    assert back.scene_ids == store.scene_ids
    assert back.env_ids == store.env_ids
    for s in store.scene_ids:
        assert np.array_equal(back.scene_centroid(s), store.scene_centroid(s))
    q = rng.standard_normal(5)
    assert back.search(q) == store.search(q)


# ---------------------------------------------------------------------------
# Retrieval accuracy on generated cluster features
# ---------------------------------------------------------------------------

def test_retrieval_accuracy_on_separated_clusters():
    cfg = WorldConfig(seed=11, n_scenes=5, n_envs=4)
    world = World(cfg)
    # separation between any two scene keys is sqrt(2) * scale; require >= 3 sigma
    assert np.sqrt(2.0) * cfg.scene_scale >= 3.0 * cfg.feature_noise
    store = FeatureStore(cfg.d_f)
    for s in range(5):
        for e in range(4):
            task = TaskDescriptor(index=s * 4 + e, scene=s, env=e)
            for i in range(20):
                store.add(s, e, gen_episode(world, task, i, split=0).obs[0])
    hits = 0
    n_queries = 1000
    for i in range(n_queries):
        s, e = (i // 4) % 5, i % 4
        ep = gen_episode(world, TaskDescriptor(index=0, scene=s, env=e),
                         1000 + i, split=1)
        hits += int(store.search(ep.obs[0]) == (s, e))
    assert hits / n_queries >= 0.95

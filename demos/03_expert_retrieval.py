"""Task-agnostic expert selection by feature retrieval.

During training the store accumulates one centroid per scene and per
environment from episode features. At inference no task id is given: a query
feature picks both expert indices by cosine similarity. This demo measures
retrieval accuracy on held-out episodes and shows scale invariance.
"""

import numpy as np

from tucker_adapters import FeatureStore, TaskDescriptor, World, WorldConfig, gen_episode

cfg = WorldConfig(seed=7, n_scenes=5, n_envs=4)
world = World(cfg)
sep = np.sqrt(2.0) * cfg.scene_scale
print(f"cluster geometry: centers {sep:.2f} apart, per-dimension noise "
      f"{cfg.feature_noise} (separation / sigma = {sep / cfg.feature_noise:.1f})\n")

store = FeatureStore(cfg.d_f)
for s in range(cfg.n_scenes):
    for e in range(cfg.n_envs):
        task = TaskDescriptor(index=s * cfg.n_envs + e, scene=s, env=e)
        for ep in gen_episode(world, task, range(20), split=0):
            store.add(s, e, ep.obs[0])
print(f"stored centroids for {len(store.scenes.ids)} scenes and "
      f"{len(store.envs.ids)} environments")

hits = scene_hits = env_hits = 0
n = 1000
for i in range(n):
    s, e = (i // cfg.n_envs) % cfg.n_scenes, i % cfg.n_envs
    [ep] = gen_episode(world, TaskDescriptor(index=0, scene=s, env=e),
                       [5000 + i], split=1)
    got = store.search(ep.obs[0])
    scene_hits += int(got[0] == s)
    env_hits += int(got[1] == e)
    hits += int(got == (s, e))
print(f"\nheld-out retrieval over {n} queries:")
print(f"  scene accuracy:       {scene_hits / n:.3f}")
print(f"  environment accuracy: {env_hits / n:.3f}")
print(f"  joint accuracy:       {hits / n:.3f}")

q = gen_episode(world, TaskDescriptor(index=0, scene=2, env=1), [9999],
                split=1)[0].obs[0]
print(f"\ncosine matching ignores query magnitude: "
      f"{store.search(q)} == {store.search(250.0 * q)}")

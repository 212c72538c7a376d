"""Task-agnostic expert selection: a centroid feature store with two-step
cosine matching over scene keys and environment keys."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .tensor_ops import EPS_NORM


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine_sim dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < EPS_NORM or nv < EPS_NORM:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(u @ v / (nu * nv))


class FeatureStore:
    """Per-scene and per-environment feature centroids (running means).

    Sums and counts are kept instead of incremental means so the centroid is
    the exact arithmetic mean regardless of insertion order.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        self.dim = dim
        self._scene_sum: dict[int, np.ndarray] = {}
        self._scene_count: dict[int, int] = {}
        self._env_sum: dict[int, np.ndarray] = {}
        self._env_count: dict[int, int] = {}
        self._keys: tuple[_Keys, _Keys] | None = None  # built by search

    def add(self, scene_id: int, env_id: int, feature: np.ndarray) -> None:
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self.dim,):
            raise ValueError(
                f"feature has shape {feature.shape}, store expects ({self.dim},)")
        self._scene_sum[scene_id] = self._scene_sum.get(
            scene_id, np.zeros(self.dim)) + feature
        self._scene_count[scene_id] = self._scene_count.get(scene_id, 0) + 1
        self._env_sum[env_id] = self._env_sum.get(env_id, np.zeros(self.dim)) + feature
        self._env_count[env_id] = self._env_count.get(env_id, 0) + 1
        self._keys = None

    def scene_centroid(self, scene_id: int) -> np.ndarray:
        return self._scene_sum[scene_id] / self._scene_count[scene_id]

    def env_centroid(self, env_id: int) -> np.ndarray:
        return self._env_sum[env_id] / self._env_count[env_id]

    @property
    def scene_ids(self) -> list[int]:
        return sorted(self._scene_sum)

    @property
    def env_ids(self) -> list[int]:
        return sorted(self._env_sum)

    def search(self, query: np.ndarray,
               pairs: set[tuple[int, int]] | None = None) -> tuple[int, int]:
        """Two-step match: argmax cosine over scene centroids, then over
        environment centroids. With ``pairs``, the second step considers only
        environments paired with the matched scene there. Ties break toward
        the lowest id.

        Each similarity is ``cosine_sim(query, centroid)`` to the bit: the
        centroids and their norms are kept from one search to the next until
        ``add`` changes them, and each key still gets its own dot product (a
        single matrix product would round differently).
        """
        if not self._scene_sum or not self._env_sum:
            raise ValueError("cannot search an empty feature store")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query has shape {query.shape}, store expects "
                             f"({self.dim},)")
        norm = np.linalg.norm(query)
        if not EPS_NORM <= norm < np.inf:
            raise ValueError("cosine similarity is undefined for zero or "
                             "non-finite vectors")
        if self._keys is None:
            self._keys = (_Keys(self.scene_ids, self.scene_centroid),
                          _Keys(self.env_ids, self.env_centroid))
        scenes, envs = self._keys
        scene = scenes.argmax(query, norm)
        allowed = None
        if pairs is not None:
            allowed = {k for k in envs.ids if (scene, k) in pairs}
            if not allowed:
                raise ValueError(f"no environment is paired with scene {scene}")
        return scene, envs.argmax(query, norm, allowed)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        meta = {"dim": self.dim, "scene_ids": self.scene_ids,
                "env_ids": self.env_ids,
                "scene_counts": [self._scene_count[k] for k in self.scene_ids],
                "env_counts": [self._env_count[k] for k in self.env_ids]}
        scene_sums = (np.stack([self._scene_sum[k] for k in self.scene_ids])
                      if self._scene_sum else np.zeros((0, self.dim)))
        env_sums = (np.stack([self._env_sum[k] for k in self.env_ids])
                    if self._env_sum else np.zeros((0, self.dim)))
        np.savez(path, meta=np.array(json.dumps(meta)),
                 scene_sums=scene_sums, env_sums=env_sums)

    @classmethod
    def load(cls, path: str | Path) -> "FeatureStore":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            store = cls(meta["dim"])
            for key, count, total in zip(meta["scene_ids"], meta["scene_counts"],
                                         np.asarray(data["scene_sums"])):
                store._scene_sum[key] = total
                store._scene_count[key] = count
            for key, count, total in zip(meta["env_ids"], meta["env_counts"],
                                         np.asarray(data["env_sums"])):
                store._env_sum[key] = total
                store._env_count[key] = count
        return store


class _Keys:
    """Sorted ids of one key kind with their centroids and centroid norms."""

    def __init__(self, ids: list[int], centroid):
        self.ids = ids
        self.centroids = [centroid(k) for k in ids]
        self.norms = [np.linalg.norm(c) for c in self.centroids]

    def argmax(self, query: np.ndarray, norm: float,
               allowed: set[int] | None = None) -> int:
        """The id of highest cosine similarity among ``allowed`` (all ids
        when None), the lowest id on a tie."""
        best_key, best_sim = None, -np.inf
        for key, centroid, c_norm in zip(self.ids, self.centroids, self.norms):
            if allowed is not None and key not in allowed:
                continue
            if c_norm < EPS_NORM:
                raise ValueError("cosine similarity is undefined for zero vectors")
            sim = float(query @ centroid / (norm * c_norm))
            if sim > best_sim:
                best_key, best_sim = key, sim
        return best_key

"""Task-agnostic expert selection: a centroid feature store with two-step
cosine matching over scene keys and environment keys."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .tensor_ops import EPS_NORM


class CentroidTable:
    """Feature sums and counts per id of one key kind: scenes or
    environments.

    Sums and counts are kept instead of incremental means so the centroid is
    the exact arithmetic mean regardless of insertion order.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.sums: dict[int, np.ndarray] = {}
        self.counts: dict[int, int] = {}

    def add(self, key: int, feature: np.ndarray) -> None:
        self.sums[key] = self.sums.get(key, np.zeros(self.dim)) + feature
        self.counts[key] = self.counts.get(key, 0) + 1
        self.__dict__.pop("_keys", None)

    def centroid(self, key: int) -> np.ndarray:
        return self.sums[key] / self.counts[key]

    @functools.cached_property
    def _keys(self) -> tuple[list, list, list]:
        """The sorted ids with their centroids and centroid norms, kept
        until the next ``add``."""
        ids = sorted(self.sums)
        centroids = [self.centroid(k) for k in ids]
        return ids, centroids, [np.linalg.norm(c) for c in centroids]

    @property
    def ids(self) -> list[int]:
        return self._keys[0]

    def stacked_sums(self) -> np.ndarray:
        """The sums as one (len(ids), dim) array, in id order."""
        return np.reshape([self.sums[k] for k in self.ids], (-1, self.dim))

    def argmax(self, query: np.ndarray, norm: float,
               allowed: set[int] | None = None) -> int:
        """The id of highest cosine similarity to ``query`` (of norm
        ``norm``) among ``allowed`` (all ids when None), the lowest id on a
        tie."""
        best_key, best_sim = None, -np.inf
        for key, centroid, c_norm in zip(*self._keys):
            if allowed is not None and key not in allowed:
                continue
            if c_norm < EPS_NORM:
                raise ValueError("cosine similarity is undefined for zero vectors")
            sim = float(query @ centroid / (norm * c_norm))
            if sim > best_sim:
                best_key, best_sim = key, sim
        return best_key


class FeatureStore:
    """Per-scene and per-environment feature centroids (running means)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        self.dim = dim
        self.scenes, self.envs = CentroidTable(dim), CentroidTable(dim)

    def add(self, scene_id: int, env_id: int, feature: np.ndarray) -> None:
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self.dim,):
            raise ValueError(
                f"feature has shape {feature.shape}, store expects ({self.dim},)")
        self.scenes.add(scene_id, feature)
        self.envs.add(env_id, feature)

    def search(self, query: np.ndarray,
               pairs: set[tuple[int, int]] | None = None) -> tuple[int, int]:
        """Two-step match: argmax cosine over scene centroids, then over
        environment centroids. With ``pairs``, the second step considers only
        environments paired with the matched scene there. Ties break toward
        the lowest id.

        Each similarity is, to the bit, that of the one-pair reference
        ``cosine_sim(query, centroid)`` in ``tests/reference_eval.py``: the
        centroids and their norms are kept from one search to the next until
        ``add`` changes them, and each key still gets its own dot product (a
        single matrix product would round differently).
        """
        if not self.scenes.sums or not self.envs.sums:
            raise ValueError("cannot search an empty feature store")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query has shape {query.shape}, store expects "
                             f"({self.dim},)")
        norm = np.linalg.norm(query)
        if not EPS_NORM <= norm < np.inf:
            raise ValueError("cosine similarity is undefined for zero or "
                             "non-finite vectors")
        scene = self.scenes.argmax(query, norm)
        allowed = None
        if pairs is not None:
            allowed = {k for k in self.envs.ids if (scene, k) in pairs}
            if not allowed:
                raise ValueError(f"no environment is paired with scene {scene}")
        return scene, self.envs.argmax(query, norm, allowed)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        tables = {"scene": self.scenes, "env": self.envs}
        meta = {"dim": self.dim,
                **{f"{kind}_ids": t.ids for kind, t in tables.items()},
                **{f"{kind}_counts": [t.counts[k] for k in t.ids]
                   for kind, t in tables.items()}}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 scene_sums=self.scenes.stacked_sums(),
                 env_sums=self.envs.stacked_sums())

    @classmethod
    def load(cls, path: str | Path) -> "FeatureStore":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            store = cls(meta["dim"])
            for kind, table in (("scene", store.scenes), ("env", store.envs)):
                ids = meta[f"{kind}_ids"]
                table.sums = dict(zip(ids, np.asarray(data[f"{kind}_sums"])))
                table.counts = dict(zip(ids, meta[f"{kind}_counts"]))
        return store

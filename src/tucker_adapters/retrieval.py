"""Task-agnostic expert selection: a centroid feature store with two-step
cosine matching over scene keys and environment keys."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .runfiles import int_list, open_npz
from .tensor_ops import EPS_NORM


def _norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of a C-contiguous float64 stack, bitwise
    ``np.linalg.norm`` of the row alone: ``sqrt`` of its ``ddot`` with
    itself."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _check_norms(norms: np.ndarray) -> None:
    if not ((EPS_NORM <= norms) & (norms < np.inf)).all():
        raise ValueError("cosine similarity is undefined for zero or "
                         "non-finite vectors")


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
    def _keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted ids, their stacked (len(ids), dim) centroids and the
        centroid norms, kept until the next ``add``."""
        ids = sorted(self.sums)
        centroids = np.reshape([self.centroid(k) for k in ids], (-1, self.dim))
        return np.array(ids, dtype=np.int64), centroids, _norms(centroids)

    @property
    def ids(self) -> list[int]:
        return self._keys[0].tolist()

    def similarities(self, queries: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """The (k, len(ids)) cosine similarities of the C-contiguous (k, dim)
        stack ``queries`` (of row norms ``norms``) to the centroids.

        Each entry is the 1 x dim by dim x 1 product of one query and one
        centroid, which numpy computes with ``ddot`` as it does ``query @
        centroid`` alone; ``queries @ centroids.T`` would be a gemm, which
        rounds differently."""
        _, centroids, c_norms = self._keys
        # a zero centroid norm gives inf or NaN; ``match`` never reads it
        with np.errstate(divide="ignore", invalid="ignore"):
            dots = (queries[:, None, None, :] @ centroids[None, :, :, None])[..., 0, 0]
            return dots / (norms[:, None] * c_norms[None, :])

    def match(self, queries: np.ndarray, norms: np.ndarray,
              allowed: np.ndarray | None = None) -> np.ndarray:
        """The id of highest similarity to each query among the ids that
        its row of the (k, len(ids)) mask ``allowed`` marks (all ids when
        None); the lowest id on a tie. A zero or non-finite centroid that
        some query may match raises ValueError."""
        ids, _, c_norms = self._keys
        _check_norms(c_norms if allowed is None else c_norms[allowed.any(axis=0)])
        sims = self.similarities(queries, norms)
        if allowed is not None:
            sims[~allowed] = -np.inf
        return ids[np.argmax(sims, axis=1)]


class FeatureStore:
    """Per-scene and per-environment feature centroids (running means)."""

    def __init__(self, dim: int):
        if not (isinstance(dim, int) and dim >= 1):
            raise ValueError(f"dim: expected an int >= 1, got {dim!r}")
        self.dim = dim
        self.scenes, self.envs = CentroidTable(dim), CentroidTable(dim)

    def add(self, scene_id: int, env_id: int, feature: np.ndarray) -> None:
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self.dim,):
            raise ValueError(
                f"feature has shape {feature.shape}, store expects ({self.dim},)")
        if not np.isfinite(feature).all():
            raise ValueError("feature has a non-finite value")
        self.scenes.add(scene_id, feature)
        self.envs.add(env_id, feature)

    def search(self, queries: np.ndarray,
               pairs: set[tuple[int, int]] | None = None
               ) -> tuple[int, int] | list[tuple[int, int]]:
        """Two-step match of one ``(dim,)`` query, returning its (scene,
        env), or of a ``(k, dim)`` stack, returning a list of k such pairs:
        argmax cosine over scene centroids, then over environment centroids.
        With ``pairs``, the second step considers only environments paired
        with the matched scene there. Ties break toward the lowest id.

        Each similarity is, to the bit, that of the one-pair reference
        ``cosine_sim(query, centroid)`` in ``tests/reference_eval.py``: the
        centroids and their norms are kept from one search to the next until
        ``add`` changes them, and each (query, centroid) entry gets its own
        dot product (see ``CentroidTable.similarities``). A zero or non-finite
        query, or considered centroid, raises ValueError.
        """
        if not self.scenes.sums or not self.envs.sums:
            raise ValueError("cannot search an empty feature store")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim not in (1, 2) or queries.shape[-1] != self.dim:
            raise ValueError(f"query has shape {queries.shape}, store expects "
                             f"({self.dim},) or (k, {self.dim})")
        stack = np.ascontiguousarray(queries.reshape(-1, self.dim))
        norms = _norms(stack)
        _check_norms(norms)
        scenes = self.scenes.match(stack, norms).tolist()
        allowed = None
        if pairs is not None:
            env_ids = self.envs.ids
            masks = {s: [(s, e) in pairs for e in env_ids]
                     for s in dict.fromkeys(scenes)}
            for s, mask in masks.items():
                if not any(mask):
                    raise ValueError(f"no environment is paired with scene {s}")
            allowed = np.array([masks[s] for s in scenes],
                               dtype=bool).reshape(-1, len(env_ids))
        envs = self.envs.match(stack, norms, allowed).tolist()
        found = list(zip(scenes, envs))
        return found if queries.ndim == 2 else found[0]

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        tables = {"scene": self.scenes, "env": self.envs}
        meta = {"dim": self.dim,
                **{f"{kind}_ids": t.ids for kind, t in tables.items()},
                **{f"{kind}_counts": [t.counts[k] for k in t.ids]
                   for kind, t in tables.items()}}
        # each table's sums as one (len(ids), dim) array, in id order
        np.savez(path, meta=np.array(json.dumps(meta)),
                 **{f"{kind}_sums": np.reshape([t.sums[k] for k in t.ids],
                                               (-1, self.dim))
                    for kind, t in tables.items()})

    @classmethod
    def load(cls, path: str | Path) -> "FeatureStore":
        with open_npz(path) as data:
            meta = json.loads(str(data["meta"]))
            store = cls(meta["dim"])
            for kind, table in (("scene", store.scenes), ("env", store.envs)):
                ids, counts = meta[f"{kind}_ids"], meta[f"{kind}_counts"]
                sums = data[f"{kind}_sums"]
                if not (int_list(ids) and int_list(counts, len(ids))
                        and len(set(ids)) == len(ids) and min(counts, default=1) >= 1
                        and sums.shape == (len(ids), store.dim)):
                    raise ValueError(
                        f"{kind}_ids {ids}, {kind}_counts {counts} and {kind}_sums of "
                        f"shape {sums.shape}: expected distinct int ids, each with an "
                        f"int count >= 1 and a sum of dim {store.dim}")
                table.sums = dict(zip(ids, sums))
                table.counts = dict(zip(ids, counts))
        return store

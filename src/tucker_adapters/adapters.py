"""The adapter zoo.

Every adapter produces a dense update ``delta`` of shape ``(a, b)`` for one
frozen backbone weight, plus the exact analytic gradient of that update with
respect to its own parameter blocks (``delta_backward``). Expert-style blocks
store one expert per index along axis 0, so freezing, consistency and
orthogonality logic is uniform across kinds.

Adapter kinds
-------------
- ``TuckerAdapter``      4-D core with scene-expert and environment-expert rows
- ``Tucker3Adapter``     3-D core with a single coupled scenario-expert matrix
- ``Tucker5Adapter``     5-D core adding instruction-type expert rows
- ``LoraAdapter``        plain low-rank update ``up @ down``
- ``SharedAMoeAdapter``  one shared down-projection, per-task up-projections,
  all experts summed into the update
- ``AbcLoraAdapter``     three-level chain: shared base, scene middle,
  environment top
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .tensor_ops import contract_adapter

SIGMA_EXPERT_INIT = 1e-3  # expert rows start tiny but nonzero so gradients flow


@dataclass(frozen=True)
class Selection:
    """Which experts the current task activates. Unused fields stay None."""

    scene: int | None = None
    env: int | None = None
    instr: int | None = None
    task: int | None = None


def kaiming(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Zero-mean Gaussian with variance 2 / fan_in."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _expert_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(0.0, SIGMA_EXPERT_INIT, size=shape)


def _check_index(name: str, idx: int | None, bound: int) -> int:
    if idx is None or not 0 <= idx < bound:
        raise IndexError(f"{name} index {idx} out of range [0, {bound})")
    return idx


class AdapterBase:
    """Shared plumbing: block access, masks, parameter counts, checkpoints."""

    kind: str = ""
    # parameter blocks updated on every task and consolidated by EWC
    shared_names: tuple[str, ...] = ()
    # blocks holding one expert per index along axis 0
    expert_axes: dict[str, str] = {}
    # expert blocks subject to the orthogonality penalty
    ortho_names: tuple[str, ...] = ()

    def blocks(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), np.ndarray)}

    def param_count(self) -> int:
        return sum(v.size for v in self.blocks().values())

    def resolve(self, sel: Selection) -> Selection:
        """Canonicalize a selection (hook for coupled-index kinds)."""
        return sel

    def expert_index(self, name: str, sel: Selection) -> int:
        axis = self.expert_axes[name]
        bound = getattr(self, name).shape[0]
        return _check_index(axis, getattr(self.resolve(sel), axis), bound)

    def trainable_mask(self, sel: Selection) -> dict[str, np.ndarray]:
        """1.0 on shared blocks and the selected expert slices, 0.0 elsewhere."""
        masks = {}
        for name, arr in self.blocks().items():
            if name in self.expert_axes:
                m = np.zeros_like(arr)
                m[self.expert_index(name, sel)] = 1.0
                masks[name] = m
            else:
                masks[name] = np.ones_like(arr)
        return masks

    def delta(self, sel: Selection) -> np.ndarray:
        raise NotImplementedError

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of ``sum(g * delta(sel))`` for every block.

        Entries for non-selected experts are structurally zero.
        """
        raise NotImplementedError

    # -- persistence --------------------------------------------------------

    def _scalars(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not isinstance(getattr(self, f.name), np.ndarray)}

    def save(self, path: str | Path, provenance: dict | None = None) -> None:
        """Self-describing checkpoint: kind tag, block shapes, parameters.

        ``provenance`` (e.g. the init seed) is stored verbatim in the header.
        """
        meta = {"kind": self.kind, "scalars": self._scalars(),
                "shapes": {k: list(v.shape) for k, v in self.blocks().items()},
                "provenance": provenance or {}}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **self.blocks())

    @staticmethod
    def load(path: str | Path) -> "AdapterBase":
        """Read a checkpoint written by ``save``; every block must have the
        shape its header records."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            arrays = {k: np.asarray(data[k]) for k in data.files if k != "__meta__"}
        cls = ADAPTER_KINDS[meta["kind"]]
        adapter = cls(**arrays, **meta.get("scalars", {}))
        shapes = {k: list(v.shape) for k, v in adapter.blocks().items()}
        for name in sorted(set(shapes) | set(meta["shapes"])):
            if shapes.get(name) != meta["shapes"].get(name):
                raise ValueError(
                    f"checkpoint {path}: block {name!r} has shape "
                    f"{shapes.get(name)}, its header records "
                    f"{meta['shapes'].get(name)}")
        return adapter


@dataclass
class TuckerAdapter(AdapterBase):
    """4-D core with shared up/down projections and two expert factor matrices.

    ``delta(scene=s, env=e) = up @ (core x_3 scene_experts[s] x_4
    env_experts[e]) @ down.T``. ``up`` is (a, r1), ``down`` is (b, r2),
    ``scene_experts`` is (M, r3) and ``env_experts`` is (N, r4).
    """

    core: np.ndarray
    up: np.ndarray
    down: np.ndarray
    scene_experts: np.ndarray
    env_experts: np.ndarray

    kind = "tucker4"
    shared_names = ("core", "up", "down")
    expert_axes = {"scene_experts": "scene", "env_experts": "env"}
    ortho_names = ("scene_experts", "env_experts")

    def __post_init__(self):
        r1, r2, r3, r4 = self.core.shape
        if self.up.shape[1] != r1 or self.down.shape[1] != r2:
            raise ValueError("up/down factor widths must match core ranks")
        if self.scene_experts.shape[1] != r3 or self.env_experts.shape[1] != r4:
            raise ValueError("expert widths must match core ranks")

    @classmethod
    def init(cls, a: int, b: int, ranks: tuple[int, int, int, int],
             n_scenes: int, n_envs: int, rng: np.random.Generator) -> "TuckerAdapter":
        r1, r2, r3, r4 = ranks
        return cls(
            core=kaiming(rng, (r1, r2, r3, r4), fan_in=r2 * r3 * r4),
            up=kaiming(rng, (a, r1), fan_in=r1),
            down=kaiming(rng, (b, r2), fan_in=b),
            scene_experts=_expert_init(rng, (n_scenes, r3)),
            env_experts=_expert_init(rng, (n_envs, r4)),
        )

    def delta(self, sel: Selection) -> np.ndarray:
        s = self.expert_index("scene_experts", sel)
        e = self.expert_index("env_experts", sel)
        return contract_adapter(self.core, self.up, self.down,
                                self.scene_experts[s], self.env_experts[e])

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        s = self.expert_index("scene_experts", sel)
        e = self.expert_index("env_experts", sel)
        u3, u4 = self.scene_experts[s], self.env_experts[e]
        mid = np.einsum("ijkl,k,l->ij", self.core, u3, u4)
        d_mid = self.up.T @ g @ self.down
        d_scene = np.zeros_like(self.scene_experts)
        d_env = np.zeros_like(self.env_experts)
        d_scene[s] = np.einsum("ij,ijkl,l->k", d_mid, self.core, u4)
        d_env[e] = np.einsum("ij,ijkl,k->l", d_mid, self.core, u3)
        return {
            "core": np.einsum("ij,k,l->ijkl", d_mid, u3, u4),
            "up": g @ self.down @ mid.T,
            "down": g.T @ self.up @ mid,
            "scene_experts": d_scene,
            "env_experts": d_env,
        }


@dataclass
class Tucker3Adapter(AdapterBase):
    """3-D core whose single expert matrix couples scene and environment.

    Scenario index is ``scene * n_envs + env`` (fixed enumeration); the
    coupled matrix has one row per scenario.
    """

    core: np.ndarray
    up: np.ndarray
    down: np.ndarray
    pair_experts: np.ndarray
    n_envs: int

    kind = "tucker3"
    shared_names = ("core", "up", "down")
    expert_axes = {"pair_experts": "task"}
    ortho_names = ("pair_experts",)

    @classmethod
    def init(cls, a: int, b: int, ranks: tuple[int, int, int],
             n_scenes: int, n_envs: int, rng: np.random.Generator) -> "Tucker3Adapter":
        r1, r2, r3 = ranks
        return cls(
            core=kaiming(rng, (r1, r2, r3), fan_in=r2 * r3),
            up=kaiming(rng, (a, r1), fan_in=r1),
            down=kaiming(rng, (b, r2), fan_in=b),
            pair_experts=_expert_init(rng, (n_scenes * n_envs, r3)),
            n_envs=n_envs,
        )

    def resolve(self, sel: Selection) -> Selection:
        """Map (scene, env) to the coupled scenario row."""
        if sel.scene is None or sel.env is None:
            raise IndexError("coupled adapter needs both scene and env indices")
        return Selection(scene=sel.scene, env=sel.env, instr=sel.instr,
                         task=sel.scene * self.n_envs + sel.env)

    def delta(self, sel: Selection) -> np.ndarray:
        t = self.expert_index("pair_experts", sel)
        mid = np.einsum("ijk,k->ij", self.core, self.pair_experts[t])
        return self.up @ mid @ self.down.T

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        t = self.expert_index("pair_experts", sel)
        row = self.pair_experts[t]
        mid = np.einsum("ijk,k->ij", self.core, row)
        d_mid = self.up.T @ g @ self.down
        d_pair = np.zeros_like(self.pair_experts)
        d_pair[t] = np.einsum("ij,ijk->k", d_mid, self.core)
        return {
            "core": np.einsum("ij,k->ijk", d_mid, row),
            "up": g @ self.down @ mid.T,
            "down": g.T @ self.up @ mid,
            "pair_experts": d_pair,
        }


@dataclass
class Tucker5Adapter(AdapterBase):
    """5-D core adding a third expert hierarchy for instruction types."""

    core: np.ndarray
    up: np.ndarray
    down: np.ndarray
    scene_experts: np.ndarray
    env_experts: np.ndarray
    instr_experts: np.ndarray

    kind = "tucker5"
    shared_names = ("core", "up", "down")
    expert_axes = {"scene_experts": "scene", "env_experts": "env",
                   "instr_experts": "instr"}
    ortho_names = ("scene_experts", "env_experts", "instr_experts")

    @classmethod
    def init(cls, a: int, b: int, ranks: tuple[int, int, int, int, int],
             n_scenes: int, n_envs: int, n_instr: int,
             rng: np.random.Generator) -> "Tucker5Adapter":
        r1, r2, r3, r4, r5 = ranks
        return cls(
            core=kaiming(rng, (r1, r2, r3, r4, r5), fan_in=r2 * r3 * r4 * r5),
            up=kaiming(rng, (a, r1), fan_in=r1),
            down=kaiming(rng, (b, r2), fan_in=b),
            scene_experts=_expert_init(rng, (n_scenes, r3)),
            env_experts=_expert_init(rng, (n_envs, r4)),
            instr_experts=_expert_init(rng, (n_instr, r5)),
        )

    def _rows(self, sel: Selection):
        s = self.expert_index("scene_experts", sel)
        e = self.expert_index("env_experts", sel)
        q = self.expert_index("instr_experts", sel)
        return s, e, q

    def delta(self, sel: Selection) -> np.ndarray:
        s, e, q = self._rows(sel)
        mid = np.einsum("ijklm,k,l,m->ij", self.core, self.scene_experts[s],
                        self.env_experts[e], self.instr_experts[q])
        return self.up @ mid @ self.down.T

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        s, e, q = self._rows(sel)
        u3, u4, u5 = (self.scene_experts[s], self.env_experts[e],
                      self.instr_experts[q])
        mid = np.einsum("ijklm,k,l,m->ij", self.core, u3, u4, u5)
        d_mid = self.up.T @ g @ self.down
        d_scene = np.zeros_like(self.scene_experts)
        d_env = np.zeros_like(self.env_experts)
        d_instr = np.zeros_like(self.instr_experts)
        d_scene[s] = np.einsum("ij,ijklm,l,m->k", d_mid, self.core, u4, u5)
        d_env[e] = np.einsum("ij,ijklm,k,m->l", d_mid, self.core, u3, u5)
        d_instr[q] = np.einsum("ij,ijklm,k,l->m", d_mid, self.core, u3, u4)
        return {
            "core": np.einsum("ij,k,l,m->ijklm", d_mid, u3, u4, u5),
            "up": g @ self.down @ mid.T,
            "down": g.T @ self.up @ mid,
            "scene_experts": d_scene,
            "env_experts": d_env,
            "instr_experts": d_instr,
        }


@dataclass
class LoraAdapter(AdapterBase):
    """Plain low-rank update ``up @ down`` with ``down`` (r, b), ``up`` (a, r)."""

    down: np.ndarray
    up: np.ndarray

    kind = "lora"
    shared_names = ("down", "up")
    expert_axes = {}
    ortho_names = ()

    @classmethod
    def init(cls, a: int, b: int, rank: int, rng: np.random.Generator) -> "LoraAdapter":
        # up starts at zero so the backbone is untouched; its gradient is
        # nonzero immediately, so training proceeds (unlike a bilinear
        # zero-zero init).
        return cls(down=kaiming(rng, (rank, b), fan_in=b),
                   up=np.zeros((a, rank)))

    def delta(self, sel: Selection) -> np.ndarray:
        return self.up @ self.down

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        return {"down": self.up.T @ g, "up": g @ self.down.T}


@dataclass
class SharedAMoeAdapter(AdapterBase):
    """One shared down-projection with per-task up-projection experts.

    All experts co-activate: ``delta = sum_k ups[k] @ down``. Each task
    trains the shared ``down`` plus its own slice ``ups[task]``.
    """

    down: np.ndarray          # (r, b)
    ups: np.ndarray           # (K, a, r)

    kind = "moe"
    shared_names = ("down",)
    expert_axes = {"ups": "task"}
    ortho_names = ()

    @classmethod
    def init(cls, a: int, b: int, rank: int, n_experts: int,
             rng: np.random.Generator) -> "SharedAMoeAdapter":
        return cls(down=kaiming(rng, (rank, b), fan_in=b),
                   ups=np.zeros((n_experts, a, rank)))

    def delta(self, sel: Selection) -> np.ndarray:
        return np.einsum("kar,rb->ab", self.ups, self.down)

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        k = self.expert_index("ups", sel)
        d_ups = np.zeros_like(self.ups)
        d_ups[k] = g @ self.down.T
        return {"down": np.einsum("kar,ab->rb", self.ups, g), "ups": d_ups}


@dataclass
class AbcLoraAdapter(AdapterBase):
    """Three-level chain ``tops[env] @ mids[scene] @ base``.

    ``base`` (r1, b) is shared, ``mids`` (S, r2, r1) are scene-specific and
    ``tops`` (E, a, r2) are environment-specific.
    """

    base: np.ndarray
    mids: np.ndarray
    tops: np.ndarray

    kind = "abc"
    shared_names = ("base",)
    expert_axes = {"mids": "scene", "tops": "env"}
    ortho_names = ("mids", "tops")

    @classmethod
    def init(cls, a: int, b: int, rank_base: int, rank_mid: int,
             n_scenes: int, n_envs: int, rng: np.random.Generator) -> "AbcLoraAdapter":
        return cls(
            base=kaiming(rng, (rank_base, b), fan_in=b),
            mids=kaiming(rng, (n_scenes, rank_mid, rank_base), fan_in=rank_base),
            tops=np.zeros((n_envs, a, rank_mid)),
        )

    def delta(self, sel: Selection) -> np.ndarray:
        s = self.expert_index("mids", sel)
        e = self.expert_index("tops", sel)
        return self.tops[e] @ self.mids[s] @ self.base

    def delta_backward(self, sel: Selection, g: np.ndarray) -> dict[str, np.ndarray]:
        s = self.expert_index("mids", sel)
        e = self.expert_index("tops", sel)
        mid, top = self.mids[s], self.tops[e]
        d_mids = np.zeros_like(self.mids)
        d_tops = np.zeros_like(self.tops)
        d_mids[s] = top.T @ g @ self.base.T
        d_tops[e] = g @ self.base.T @ mid.T
        return {"base": mid.T @ top.T @ g, "mids": d_mids, "tops": d_tops}


ADAPTER_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (TuckerAdapter, Tucker3Adapter, Tucker5Adapter,
                LoraAdapter, SharedAMoeAdapter, AbcLoraAdapter)
}


def init_adapter(kind: str, dims: dict, seed: int | np.random.Generator) -> AdapterBase:
    """Seed-deterministic factory over all adapter kinds."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if kind not in ADAPTER_KINDS:
        raise ValueError(f"unknown adapter kind {kind!r}; "
                         f"expected one of {sorted(ADAPTER_KINDS)}")
    return ADAPTER_KINDS[kind].init(rng=rng, **dims)


# ---------------------------------------------------------------------------
# An adapter stack as one flat parameter vector
# ---------------------------------------------------------------------------

def block_key(layer: int, name: str) -> str:
    """Name of one block of an adapter stack in checkpoints and reports."""
    return f"L{layer}:{name}"


def pack_layers(layers: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Per-layer block dicts as one dict keyed by ``block_key``."""
    return {block_key(l, name): arr for l, layer in enumerate(layers)
            for name, arr in layer.items()}


def unpack_layers(packed: dict[str, np.ndarray],
                  n_layers: int) -> list[dict[str, np.ndarray]]:
    """Inverse of ``pack_layers``."""
    layers = [{} for _ in range(n_layers)]
    for key, arr in packed.items():
        prefix, name = key.split(":", 1)
        layers[int(prefix[1:])][name] = arr
    return layers


@dataclass(frozen=True)
class Slot:
    """Where one block of an adapter stack lives in the flat vector."""

    start: int
    shape: tuple[int, ...]

    @property
    def span(self) -> slice:
        return slice(self.start, self.start + int(np.prod(self.shape)))

    def row(self, index: int) -> slice:
        """The slots of row ``index`` (along the leading axis) of this block."""
        width = int(np.prod(self.shape[1:]))
        return slice(self.start + index * width, self.start + (index + 1) * width)


@dataclass(frozen=True)
class FlatLayout:
    """The blocks of an adapter stack laid out in one float64 vector, in the
    manner of ``parameters_to_vector`` or ``ravel_pytree``.

    The shared blocks of every layer come first and fill the leading
    ``n_shared`` slots; the expert blocks follow. Checkpoints keep their
    per-block files, so the order is free to choose.
    """

    slots: dict[tuple[int, str], Slot]   # (layer, block name), in vector order
    n_shared: int
    size: int

    @classmethod
    def of(cls, adapters: list[AdapterBase]) -> "FlatLayout":
        blocks = [(name not in ad.shared_names, l, name, arr.shape)
                  for l, ad in enumerate(adapters)
                  for name, arr in ad.blocks().items()]
        slots, start, n_shared = {}, 0, 0
        for expert, l, name, shape in sorted(blocks, key=lambda b: b[0]):
            slots[l, name] = Slot(start, shape)
            start = slots[l, name].span.stop
            if not expert:
                n_shared = start
        return cls(slots, n_shared, start)

    def bind(self, adapters: list[AdapterBase]) -> np.ndarray:
        """Copy every block into one new vector and make each block of
        ``adapters`` a view of it; returns the vector."""
        theta = np.empty(self.size)
        for (l, name), s in self.slots.items():
            theta[s.span] = getattr(adapters[l], name).ravel()
            setattr(adapters[l], name, theta[s.span].reshape(s.shape))
        return theta

    def check_bound(self, adapters: list[AdapterBase], theta: np.ndarray) -> None:
        """Raise if a block of ``adapters`` is no longer a view of ``theta``
        (an optimizer step on ``theta`` would then miss it)."""
        for l, ad in enumerate(adapters):
            for name, arr in ad.blocks().items():
                if arr.base is not theta:
                    raise RuntimeError(f"block {block_key(l, name)} is not a "
                                       "view of the flat parameter vector")

    def flatten(self, layers: list[dict[str, np.ndarray]],
                shared_only: bool = False) -> np.ndarray:
        """One vector in this layout from per-layer block dicts; with
        ``shared_only``, of the leading ``n_shared`` slots alone."""
        stop = self.n_shared if shared_only else self.size
        return np.concatenate([layers[l][name].ravel()
                               for (l, name), s in self.slots.items()
                               if s.start < stop])

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Block-shaped views of a vector in this layout, keyed by ``block_key``."""
        return {block_key(l, name): vector[s.span].reshape(s.shape)
                for (l, name), s in self.slots.items()}

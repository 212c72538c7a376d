"""The adapter zoo.

Every adapter produces a dense update ``delta`` of shape ``(a, b)`` for one
frozen backbone weight, plus the exact analytic gradient of that update with
respect to its own parameter blocks (``delta_backward``). Expert-style blocks
store one expert per index along axis 0, so freezing, consistency and
orthogonality logic is uniform across kinds.

Adapter kinds
-------------
- ``TuckerAdapter``      one Tucker core with shared up/down projections; the
  core's order picks the expert hierarchies: ``tucker3`` one coupled
  scene x environment block, ``tucker4`` scene and environment blocks,
  ``tucker5`` those two plus instruction types
- ``LoraAdapter``        plain low-rank update ``up @ down``
- ``TaskLoraAdapter``    ``lora_per_task``: one independent low-rank update
  per task, held as task experts with no shared block
- ``SharedAMoeAdapter``  one shared down-projection, per-task up-projections,
  all experts summed into the update
- ``AbcLoraAdapter``     three-level chain: shared base, scene middle,
  environment top
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .runfiles import open_npz
from .tensor_ops import contract_adapter, tucker_subscripts

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


class AdapterBase:
    """Shared plumbing: blocks, trained rows, parameter counts, checkpoints."""

    kind: str = ""
    # parameter blocks updated on every task and consolidated by EWC
    shared_names: tuple[str, ...] = ()
    # blocks holding one expert per index along axis 0, each with the
    # Selection field that picks its row
    expert_axes: dict[str, str] = {}
    # expert blocks subject to the orthogonality penalty
    ortho_names: tuple[str, ...] = ()
    # constructor arguments that are not blocks; checkpoint headers keep them
    scalar_names: tuple[str, ...] = ()
    # a scenario's expert is the one its own task trained, so only trained
    # (scene, env) pairs have one
    pairs_only: bool = False

    @classmethod
    def from_config(cls, cfg, a: int, b: int, rng_for) -> "AdapterBase":
        """The adapter of one (a, b) backbone layer, sized by the experiment
        config ``cfg``. ``rng_for(0)`` is its generator; a kind whose task
        experts are independent draws expert t from ``rng_for(1 + t)``."""
        raise NotImplementedError

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name)
                for name in self.shared_names + tuple(self.expert_axes)}

    def param_count(self) -> int:
        return sum(v.size for v in self.blocks().values())

    def resolve(self, sel: Selection) -> Selection:
        """Canonicalize a selection (hook for coupled-index kinds)."""
        return sel

    def expert_index(self, name: str, sel: Selection) -> int:
        axis = self.expert_axes[name]
        idx = getattr(self.resolve(sel), axis)
        bound = getattr(self, name).shape[0]
        if idx is None or not 0 <= idx < bound:
            raise IndexError(f"{axis} index {idx} out of range [0, {bound})")
        return idx

    def trainable_mask(self, sel: Selection) -> tuple[int, ...]:
        """The row of each expert block (``expert_axes`` order) that ``sel``
        trains; every shared block trains whole and no other row trains."""
        return tuple(self.expert_index(name, sel) for name in self.expert_axes)

    def operands(self, sel: Selection) -> tuple:
        """``trainable_mask(sel)`` and a view of each of those rows. The
        views follow the blocks until they are rebound, so a step takes them
        once per task and passes them back as ``ops``, and ``sel`` is then
        not looked at."""
        index = self.trainable_mask(sel)
        return index, tuple(getattr(self, name)[i]
                            for name, i in zip(self.expert_axes, index))

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        raise NotImplementedError

    def delta_backward(self, ops: tuple, g: np.ndarray,
                       out: dict[str, np.ndarray]) -> None:
        """Write the gradients of ``sum(g * delta(sel, ops))`` into ``out``.

        ``ops`` is ``operands(sel)`` as the ``delta(sel, ops)`` of the same
        forward pass left it. ``out`` maps each block name to an array of
        the block's shape. The gradient of every shared block and of the
        selected row of every expert block is written into it, and no other
        row is touched.
        """
        raise NotImplementedError

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path, provenance: dict | None = None) -> None:
        """Self-describing checkpoint: kind tag, block shapes, parameters.

        ``provenance`` (e.g. the init seed) is stored verbatim in the header.
        """
        meta = {"kind": self.kind,
                "scalars": {name: getattr(self, name) for name in self.scalar_names},
                "shapes": {k: list(v.shape) for k, v in self.blocks().items()},
                "provenance": provenance or {}}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **self.blocks())

    @staticmethod
    def load(path: str | Path) -> "AdapterBase":
        """Read a checkpoint written by ``save``. A header that names no
        adapter kind or does not fit the arrays raises a ValueError."""
        with open_npz(path) as data:
            meta = json.loads(str(data["__meta__"]))
            arrays = {k: np.asarray(data[k]) for k in data.files if k != "__meta__"}
            kind = meta.get("kind") if isinstance(meta, dict) else None
            if kind not in ADAPTER_KINDS:
                raise ValueError(f"__meta__: kind {kind!r} is not one of "
                                 f"{sorted(ADAPTER_KINDS)}")
            adapter = ADAPTER_KINDS[kind](**arrays, **meta.get("scalars", {}))
            shapes = {k: list(v.shape) for k, v in adapter.blocks().items()}
            for name in sorted(set(shapes) | set(meta["shapes"])):
                if shapes.get(name) != meta["shapes"].get(name):
                    raise ValueError(f"block {name!r} has shape {shapes.get(name)}, "
                                     f"its header records {meta['shapes'].get(name)}")
        return adapter


# The expert blocks of a Tucker core of each order, each with the Selection
# field that picks its row; a core of order n is adapter kind "tucker{n}".
TUCKER_EXPERTS: dict[int, dict[str, str]] = {
    3: {"pair_experts": "task"},
    4: {"scene_experts": "scene", "env_experts": "env"},
    5: {"scene_experts": "scene", "env_experts": "env", "instr_experts": "instr"},
}
TUCKER_KINDS: dict[str, int] = {f"tucker{order}": order for order in TUCKER_EXPERTS}


class TuckerAdapter(AdapterBase):
    """Shared core, up and down projections with k = core order - 2 expert
    factor matrices.

    ``delta(sel) = up @ (core x_3 u_1 ... x_{k+2} u_k) @ down.T`` where u_i
    is the selected row of the i-th expert block. ``up`` is (a, r1), ``down``
    is (b, r2) and expert block i is (count_i, r_{i+2}). The core's order
    picks the blocks (``TUCKER_EXPERTS``): order 3 has one ``pair_experts``
    block with one row per scenario ``scene * n_envs + env`` (fixed
    enumeration, filled in by ``resolve``); order 4 has ``scene_experts``
    (M, r3) and ``env_experts`` (N, r4); order 5 adds ``instr_experts``.
    """

    shared_names = ("core", "up", "down")

    def __init__(self, core: np.ndarray, up: np.ndarray, down: np.ndarray,
                 n_envs: int | None = None, **experts: np.ndarray):
        order = np.ndim(core)
        if order not in TUCKER_EXPERTS:
            raise ValueError(f"a Tucker core has order 3, 4 or 5, not {order}")
        self.kind = f"tucker{order}"
        self.expert_axes = TUCKER_EXPERTS[order]
        self.ortho_names = tuple(self.expert_axes)
        if set(experts) != set(self.expert_axes):
            raise ValueError(f"a {self.kind} core takes expert blocks "
                             f"{list(self.expert_axes)}, got {sorted(experts)}")
        if (n_envs is not None) != (order == 3):
            raise ValueError("n_envs couples scene and env in tucker3 cores only")
        self.scalar_names = ("n_envs",) if order == 3 else ()
        self.core, self.up, self.down, self.n_envs = core, up, down, n_envs
        for name in self.expert_axes:
            setattr(self, name, experts[name])
        widths = (up.shape[1], down.shape[1],
                  *(experts[name].shape[1] for name in self.expert_axes))
        if widths != core.shape:
            raise ValueError(f"factor widths {widths} must match the core "
                             f"ranks {core.shape}")
        _, self._core_grad, self._row_grads = tucker_subscripts(order - 2)

    @classmethod
    def init(cls, a: int, b: int, ranks: tuple[int, ...], n_scenes: int,
             n_envs: int, rng: np.random.Generator,
             n_instr: int = 0) -> "TuckerAdapter":
        """Core of order ``len(ranks)``; the experts of each block start tiny."""
        counts = {"pair_experts": n_scenes * n_envs, "scene_experts": n_scenes,
                  "env_experts": n_envs, "instr_experts": n_instr}
        r1, r2, *expert_ranks = ranks
        core = kaiming(rng, tuple(ranks), fan_in=math.prod(ranks[1:]))
        up = kaiming(rng, (a, r1), fan_in=r1)
        down = kaiming(rng, (b, r2), fan_in=b)
        experts = {name: rng.normal(0.0, SIGMA_EXPERT_INIT, size=(counts[name], r))
                   for name, r in zip(TUCKER_EXPERTS[len(ranks)], expert_ranks)}
        return cls(core, up, down, n_envs=n_envs if len(ranks) == 3 else None,
                   **experts)

    @classmethod
    def from_config(cls, cfg, a, b, rng_for):
        return cls.init(a, b, tuple(cfg.ranks[:TUCKER_KINDS[cfg.adapter_kind]]),
                        cfg.n_scenes, cfg.n_envs, rng_for(0), n_instr=cfg.n_instr)

    def resolve(self, sel: Selection) -> Selection:
        """Map (scene, env) to the coupled scenario row of a tucker3 core."""
        if self.n_envs is None:
            return sel
        if sel.scene is None or sel.env is None:
            raise IndexError("coupled adapter needs both scene and env indices")
        return Selection(scene=sel.scene, env=sel.env, instr=sel.instr,
                         task=sel.scene * self.n_envs + sel.env)

    def operands(self, sel: Selection) -> tuple:
        """As ``AdapterBase.operands``, with the step's einsum operands and
        a buffer where ``delta`` leaves ``mid`` for ``delta_backward``."""
        index, rows = super().operands(sel)
        return (index, (self.core, *rows), np.empty(self.core.shape[:2]),
                tuple((self.core, *rows[:n], *rows[n + 1:])
                      for n in range(len(rows))))

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        _, (core, *rows), mid, _ = ops or self.operands(sel)
        return contract_adapter(core, self.up, self.down, *rows, out=mid)

    def delta_backward(self, ops, g, out):
        index, (_, *rows), mid, row_operands = ops
        d_mid = self.up.T @ g @ self.down
        np.einsum(self._core_grad, d_mid, *rows, out=out["core"])
        np.matmul(g @ self.down, mid.T, out=out["up"])
        np.matmul(g.T @ self.up, mid, out=out["down"])
        for subscripts, name, i, operands in zip(
                self._row_grads, self.expert_axes, index, row_operands):
            np.einsum(subscripts, d_mid, *operands, out=out[name][i])


@dataclass
class LoraAdapter(AdapterBase):
    """Plain low-rank update ``up @ down`` with ``down`` (r, b), ``up`` (a, r)."""

    down: np.ndarray
    up: np.ndarray

    kind = "lora"
    shared_names = ("down", "up")

    @classmethod
    def init(cls, a: int, b: int, rank: int, rng: np.random.Generator) -> "LoraAdapter":
        # up starts at zero so the backbone is untouched; its gradient is
        # nonzero immediately, so training proceeds (unlike a bilinear
        # zero-zero init).
        return cls(down=kaiming(rng, (rank, b), fan_in=b),
                   up=np.zeros((a, rank)))

    @classmethod
    def from_config(cls, cfg, a, b, rng_for):
        return cls.init(a, b, cfg.lora_rank, rng_for(0))

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        return self.up @ self.down

    def delta_backward(self, ops, g, out):
        np.matmul(self.up.T, g, out=out["down"])
        np.matmul(g, self.down.T, out=out["up"])


@dataclass
class TaskLoraAdapter(AdapterBase):
    """One independent low-rank update per task: ``delta = ups[t] @ downs[t]``
    for task t, with ``downs`` (T, r, b) and ``ups`` (T, a, r).

    Nothing is shared: each task trains its own expert pair and no other
    block, and only scenarios a task trained have an expert (``pairs_only``).
    """

    downs: np.ndarray
    ups: np.ndarray

    kind = "lora_per_task"
    expert_axes = {"downs": "task", "ups": "task"}
    pairs_only = True

    @classmethod
    def init(cls, a: int, b: int, rank: int,
             rngs: list[np.random.Generator]) -> "TaskLoraAdapter":
        """One expert per generator, drawn from it as ``LoraAdapter.init``
        draws a LoRA."""
        loras = [LoraAdapter.init(a, b, rank, rng) for rng in rngs]
        return cls(downs=np.stack([lo.down for lo in loras]),
                   ups=np.stack([lo.up for lo in loras]))

    @classmethod
    def from_config(cls, cfg, a, b, rng_for):
        return cls.init(a, b, cfg.lora_rank,
                        [rng_for(1 + t) for t in range(cfg.n_tasks)])

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        down, up = (ops or self.operands(sel))[1]
        return up @ down

    def delta_backward(self, ops, g, out):
        (t, _), (down, up) = ops
        np.matmul(up.T, g, out=out["downs"][t])
        np.matmul(g, down.T, out=out["ups"][t])


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

    @classmethod
    def init(cls, a: int, b: int, rank: int, n_experts: int,
             rng: np.random.Generator) -> "SharedAMoeAdapter":
        return cls(down=kaiming(rng, (rank, b), fan_in=b),
                   ups=np.zeros((n_experts, a, rank)))

    @classmethod
    def from_config(cls, cfg, a, b, rng_for):
        return cls.init(a, b, cfg.moe_rank, cfg.n_tasks, rng_for(0))

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        return np.einsum("kar,rb->ab", self.ups, self.down)

    def delta_backward(self, ops, g, out):
        (k,), _ = ops
        np.einsum("kar,ab->rb", self.ups, g, out=out["down"])
        np.matmul(g, self.down.T, out=out["ups"][k])


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

    @classmethod
    def from_config(cls, cfg, a, b, rng_for):
        return cls.init(a, b, cfg.abc_rank_base, cfg.abc_rank_mid,
                        cfg.n_scenes, cfg.n_envs, rng_for(0))

    def delta(self, sel: Selection, ops: tuple | None = None) -> np.ndarray:
        mid, top = (ops or self.operands(sel))[1]
        return top @ mid @ self.base

    def delta_backward(self, ops, g, out):
        (s, e), (mid, top) = ops
        np.matmul(top.T @ g, self.base.T, out=out["mids"][s])
        np.matmul(g @ self.base.T, mid.T, out=out["tops"][e])
        np.matmul(mid.T @ top.T, g, out=out["base"])


ADAPTER_KINDS: dict[str, type] = {
    **dict.fromkeys(TUCKER_KINDS, TuckerAdapter),
    **{cls.kind: cls for cls in (LoraAdapter, TaskLoraAdapter,
                                 SharedAMoeAdapter, AbcLoraAdapter)},
}


# ---------------------------------------------------------------------------
# An adapter stack as one flat parameter vector
# ---------------------------------------------------------------------------

def block_key(layer: int, name: str) -> str:
    """Name of one block of an adapter stack in checkpoints and reports."""
    return f"L{layer}:{name}"


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
    per-block files, so the order is free to choose. ``views`` is the one
    mapping between a vector in this layout and block arrays keyed as in a
    checkpoint: reading the views saves a vector, filling them loads one.
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

    def flatten(self, adapters: list[AdapterBase]) -> np.ndarray:
        """Every block of ``adapters``, copied into one new vector."""
        return np.concatenate([getattr(adapters[l], name).ravel()
                               for l, name in self.slots], dtype=np.float64)

    def bind(self, adapters: list[AdapterBase]) -> np.ndarray:
        """``flatten(adapters)``, with each block of ``adapters`` made a
        view of the new vector."""
        theta = self.flatten(adapters)
        for (l, name), s in self.slots.items():
            setattr(adapters[l], name, theta[s.span].reshape(s.shape))
        return theta

    def trained(self, adapters: list[AdapterBase], sel: Selection) -> list[slice]:
        """The slots a task of selection ``sel`` trains: the shared span,
        then each layer's expert rows of ``trainable_mask(sel)``."""
        return [slice(0, self.n_shared)] + [
            self.slots[l, name].row(row) for l, ad in enumerate(adapters)
            for name, row in zip(ad.expert_axes, ad.trainable_mask(sel))]

    def check_bound(self, adapters: list[AdapterBase], theta: np.ndarray) -> None:
        """Raise if a block of ``adapters`` is no longer a view of ``theta``
        (an optimizer step on ``theta`` would then miss it)."""
        for l, ad in enumerate(adapters):
            for name, arr in ad.blocks().items():
                if arr.base is not theta:
                    raise RuntimeError(f"block {block_key(l, name)} is not a "
                                       "view of the flat parameter vector")

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Block-shaped views of a vector in this layout, keyed by
        ``block_key`` in checkpoint order (layer by layer); a vector of the
        ``n_shared`` leading slots has views of the shared blocks alone."""
        return {block_key(l, name): vector[s.span].reshape(s.shape)
                for (l, name), s in sorted(self.slots.items(),
                                           key=lambda item: item[0][0])
                if s.span.stop <= vector.size}


def audit_task(before: list[AdapterBase], after: list[AdapterBase],
               sel: Selection) -> dict:
    """What the task of selection ``sel`` did to the stack ``before`` (the
    initial one or the last task's) to leave ``after``: ``"shared"`` and
    ``"experts"`` map each shared block ``L{l}:{block}`` and each trained
    expert row ``L{l}:{block}[{row}]`` to its (L2 drift, norm before), and
    ``"frozen_changed"`` names each other row whose bytes changed."""
    layout = FlatLayout.of(before)
    if FlatLayout.of(after) != layout:
        raise ValueError("the two adapter stacks have different blocks")
    old, new = layout.flatten(before), layout.flatten(after)
    trained = np.zeros(layout.size, dtype=bool)
    for slots in layout.trained(before, sel):
        trained[slots] = True
    drift, changed = new - old, old.view(np.int64) != new.view(np.int64)
    audit = {"shared": {}, "experts": {}, "frozen_changed": []}
    for (l, name), s in layout.slots.items():
        key, n = block_key(l, name), s.shape[0]
        norms = np.stack([np.linalg.norm(v[s.span].reshape(n, -1), axis=1)
                          for v in (drift, old)], axis=1)
        rows = trained[s.span].reshape(n, -1).all(axis=1)
        if name in before[l].shared_names:
            audit["shared"][key] = tuple(np.linalg.norm(norms, axis=0).tolist())
        else:
            audit["experts"].update({f"{key}[{row}]": tuple(norms[row].tolist())
                                     for row in np.flatnonzero(rows)})
        moved = changed[s.span].reshape(n, -1).any(axis=1) & ~rows
        audit["frozen_changed"] += [f"{key}[{row}]" for row in np.flatnonzero(moved)]
    return audit

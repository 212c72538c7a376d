"""Experiment configuration: defaults, validation, file round-trip, hashing.

A config file is a flat JSON object; unknown keys are rejected so typos fail
fast. Every random choice in an experiment is derived from the explicit
seeds recorded here, which is what makes runs reproducible and resumable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .adapters import ADAPTER_KINDS, TUCKER_KINDS
from .tasks import WorldConfig

VALID_KINDS = tuple(sorted(ADAPTER_KINDS))


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _field_type(cls, key: str):
    """The annotated type of field ``key`` of the dataclass ``cls``."""
    types = typing.get_type_hints(cls)
    if key not in types:
        raise ConfigError(f"{key}: unknown field of {cls.__name__}")
    return types[key]


def _item_types(kind, n: int) -> tuple | None:
    """Types of the items of an ``n``-tuple of type ``kind``; None when
    ``kind`` is not a tuple type or does not take ``n`` items."""
    if typing.get_origin(kind) is not tuple:
        return None
    args = typing.get_args(kind)
    if len(args) == 2 and args[1] is Ellipsis:
        return (args[0],) * n
    return args if len(args) == n else None


def _type_name(kind) -> str:
    return str(kind) if typing.get_origin(kind) else kind.__name__


def _parse(kind, text: str):
    if kind is bool:
        if text.lower() not in _TRUE + _FALSE:
            raise ValueError(f"not one of {_TRUE + _FALSE}")
        return text.lower() in _TRUE
    return kind(text)   # int, float or str


def coerce_field(cls, key: str, raw: str):
    """Convert a ``--set key=raw`` string to the type of field ``key`` of
    the dataclass ``cls``; a tuple is written with commas or spaces."""
    kind = _field_type(cls, key)
    try:
        if typing.get_origin(kind) is not tuple:
            return _parse(kind, raw)
        parts = raw.replace(",", " ").split()
        items = _item_types(kind, len(parts))
        if items is None:
            raise ValueError(f"{len(parts)} values")
        return tuple(map(_parse, items, parts))
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot read {raw!r} as {_type_name(kind)} "
                          f"({exc})") from exc


def check_finite(obj) -> None:
    """Raise ConfigError naming the first field of the dataclass ``obj``
    that holds a float, or a tuple with a float, that is not finite."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in items if isinstance(v, float)):
            raise ConfigError(f"{f.name}: must be finite, got {value!r}")


def _fits(kind, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def check_field(cls, key: str, value):
    """``value``, as read from JSON, if it has the type of field ``key`` of
    the dataclass ``cls``: an int field takes an int but not a bool, a float
    field also takes an int (returned as a float, so that ``0`` and ``0.0``
    hash alike), and a tuple field a list (returned as a tuple)."""
    kind = _field_type(cls, key)
    if typing.get_origin(kind) is not tuple:
        if _fits(kind, value):
            return float(value) if kind is float else value
    elif isinstance(value, (list, tuple)):
        items = _item_types(kind, len(value))
        if items is not None and all(map(_fits, items, value)):
            return tuple(float(v) if k is float else v
                         for k, v in zip(items, value))
    raise ConfigError(f"{key}: expected {_type_name(kind)}, got {value!r}")


# the least value of each field that counts or sizes something
_MINIMA = {**dict.fromkeys(
    ("lora_rank", "moe_rank", "abc_rank_base", "abc_rank_mid", "n_scenes",
     "n_envs", "n_tasks", "train_episodes", "test_episodes", "epochs",
     "batch_size", "d_f", "hidden", "horizon"), 1), "n_instr": 0, "seed": 0}


@dataclass
class ExperimentConfig:
    # adapter selection (one code path, many adapters)
    adapter_kind: str = "tucker4"
    ranks: tuple[int, ...] = (4, 4, 8, 8)   # tucker cores; first 3 / all 5 as needed
    lora_rank: int = 8
    moe_rank: int = 8
    abc_rank_base: int = 8
    abc_rank_mid: int = 8

    # capacities and stream
    n_scenes: int = 5
    n_envs: int = 4
    n_instr: int = 0
    n_tasks: int = 20
    train_episodes: int = 96
    test_episodes: int = 100

    # consolidation and optimizer
    lam1: float = 0.2
    lam2: float = 0.2
    lam3: float = 0.1
    omega: float = 0.95
    lr: float = 3e-3           # desk-scale recalibration; full-scale value is 1e-4
    epochs: int = 30
    batch_size: int = 2
    fisher_fraction: float = 0.1

    # synthetic world / backbone
    d_f: int = 64
    hidden: int = 64
    horizon: int = 16
    feature_noise: float = 0.15
    scene_scale: float = 1.0
    env_scale: float = 1.0
    instr_scale: float = 0.3

    # metrics
    epsilon: float = 3.0
    spl_literal: bool = False

    # seeds (all explicit)
    seed: int = 0

    def validate(self) -> "ExperimentConfig":
        check_finite(self)
        if self.adapter_kind not in VALID_KINDS:
            raise ConfigError(
                f"adapter_kind: {self.adapter_kind!r} is not one of {VALID_KINDS}")
        for name, least in _MINIMA.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name}: must be >= {least}, "
                                  f"got {getattr(self, name)}")
        if not all(r >= 1 for r in self.ranks):
            raise ConfigError(f"ranks: must all be >= 1, got {list(self.ranks)}")
        if self.lam1 + self.lam2 + self.lam3 >= 1.0:
            raise ConfigError("lam1+lam2+lam3: must sum to < 1")
        if min(self.lam1, self.lam2, self.lam3) < 0:
            raise ConfigError("lam1/lam2/lam3: must be >= 0")
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError("omega: must lie in [0, 1]")
        # feature_noise: a redrawn episode gets more noise, so that a teacher
        # that stands still at the cluster center moves eventually
        for name in ("lr", "feature_noise", "epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be > 0, got {getattr(self, name)}")
        if self.n_tasks > self.n_scenes * self.n_envs:
            raise ConfigError(
                f"n_tasks: {self.n_tasks} exceeds scenario capacity "
                f"{self.n_scenes} x {self.n_envs}")
        if self.adapter_kind == "tucker5" and self.n_instr < 1:
            raise ConfigError("n_instr: tucker5 needs at least one instruction type")
        order = TUCKER_KINDS.get(self.adapter_kind, 0)
        if len(self.ranks) < order:
            raise ConfigError(f"ranks: {self.adapter_kind} needs {order} ranks, "
                              f"got {len(self.ranks)}")
        if not 0.0 < self.fisher_fraction <= 1.0:
            raise ConfigError("fisher_fraction: must lie in (0, 1]")
        if self.d_f < max(self.n_scenes, self.n_envs):
            raise ConfigError("d_f: needs at least as many dims as expert keys")
        return self

    # -- derived views -------------------------------------------------------

    @property
    def lam_task(self) -> float:
        """The weight of the task loss: what the consolidation terms leave."""
        return 1.0 - (self.lam1 + self.lam2 + self.lam3)

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            d_f=self.d_f, hidden=self.hidden, n_scenes=self.n_scenes,
            n_envs=self.n_envs, n_instr=self.n_instr, horizon=self.horizon,
            feature_noise=self.feature_noise, scene_scale=self.scene_scale,
            env_scale=self.env_scale, instr_scale=self.instr_scale,
            seed=self.seed)

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- file round-trip -----------------------------------------------------

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_file(cls, path: str | Path,
                  overrides: dict | None = None) -> "ExperimentConfig":
        """The config a JSON file holds, with ``overrides`` on top."""
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: cannot read it ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object, "
                              f"got {type(raw).__name__}")
        return cls.from_dict({**raw, **(overrides or {})})

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: check_field(cls, k, v) for k, v in raw.items()}).validate()

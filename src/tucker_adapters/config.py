"""Experiment configuration: defaults, validation, file round-trip, hashing.

A config file is a flat JSON object; unknown keys are rejected so typos fail
fast. Every random choice in an experiment is derived from the explicit
seeds recorded here, which is what makes runs reproducible and resumable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
import os
import pickle
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .adapters import ADAPTER_KINDS, TUCKER_KINDS
from .runfiles import read_json
from .tasks import WorldConfig

VALID_KINDS = tuple(sorted(ADAPTER_KINDS))


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


# the resolved annotations of a dataclass, once per class
_type_hints = functools.cache(typing.get_type_hints)


def _field_type(cls, key: str):
    """The annotated type of field ``key`` of the dataclass ``cls``."""
    hints = _type_hints(cls)
    if key not in hints:
        raise ConfigError(f"{key}: unknown field of {cls.__name__}")
    return hints[key]


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


def check_ranges(obj, ranges: dict[str, str]) -> None:
    """Raise ConfigError naming the first field of the dataclass ``obj``
    with a number, or a tuple item, outside its interval in ``ranges``,
    written like ``"[0, inf)"`` or ``"(0, 1]"``; by default ``(-inf, inf)``."""
    for f in dataclasses.fields(obj):
        value, text = getattr(obj, f.name), ranges.get(f.name, "(-inf, inf)")
        lo, hi = map(float, text[1:-1].split(","))
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, numbers.Real) and not (
                    (lo <= v if text[0] == "[" else lo < v)
                    and (v <= hi if text[-1] == "]" else v < hi)):
                raise ConfigError(f"{f.name}: must lie in {text}, got {value!r}")


def _fits(kind, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on every CPU this process may use.

    The items are cut into one contiguous share per CPU. This process maps
    the first share, and one ``os.fork`` child per further CPU maps each
    other share, pickles its results, or the exception that stopped it,
    back through a pipe and leaves with ``os._exit``. The shares are joined
    in item order and a child's exception is raised again unchanged, so the
    first failing item's error is raised as in the serial loop. Every child
    is reaped before the call returns or raises, and any still running when
    this process fails is killed first. A forked child reads ``fn``'s loaded
    state in place, so nothing but results is pickled. Serial without
    ``os.fork`` or an affinity set, with one CPU or with one item.
    """
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = max(1, min(len(items), available_cpus() if can_fork else 1))
    cuts = [len(items) * k // n for k in range(n + 1)]
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    children = {}   # pid -> the read end of its pipe, until it is reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _map_share_and_exit(fn, share, read, write)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        results = [fn(item) for item in shares[0]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:   # it exits 0 only once its result is written
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"worker process {pid} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    finally:
        if children:
            import signal   # imported here: no other path pays for it
            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _map_share_and_exit(fn, share: list, read: int, write: int):
    """The forked child of `forked_map`: maps ``share``, writes the
    pickled ``(True, results)`` or ``(False, exception)`` to ``write`` and
    exits, 0 once all of it is written; it never returns."""
    code = 1
    try:
        os.close(read)
        try:
            payload = True, [fn(item) for item in share]
        except BaseException as exc:
            payload = False, exc
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def write_atomic(path: Path, data: str | bytes) -> None:
    """Replace ``path`` by a file holding ``data``, text or bytes; an
    interruption leaves the old file or the new one, never a part."""
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data)
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def check_field(cls, key: str, value):
    """``value``, as read from JSON, if it has the type of field ``key`` of
    the dataclass ``cls``: an int field takes an int but not a bool, a float
    field also takes an int (returned as a float, so that ``0`` and ``0.0``
    hash alike), a tuple field a list (returned as a tuple), and a ``T |
    None`` field null or what a ``T`` field takes."""
    kind = _field_type(cls, key)
    if isinstance(kind, types.UnionType):   # T | None
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is not tuple:
        if _fits(kind, value):
            return float(value) if kind is float else value
    elif isinstance(value, (list, tuple)):
        items = _item_types(kind, len(value))
        if items is not None and all(map(_fits, items, value)):
            return tuple(float(v) if k is float else v
                         for k, v in zip(items, value))
    raise ConfigError(f"{key}: expected {_type_name(kind)}, got {value!r}")


@dataclass
class ExperimentConfig:
    # the interval of each field (see check_ranges); an unlisted float
    # must be finite. feature_noise > 0: a redrawn episode gets more noise,
    # so that a teacher that stands still at the cluster center moves. The
    # world floats are capped at 1e6 in magnitude, so that feature norms
    # and the retrieval store's centroid sums stay finite
    RANGES = {**dict.fromkeys(
        ("ranks", "lora_rank", "moe_rank", "abc_rank_base", "abc_rank_mid",
         "n_scenes", "n_envs", "n_tasks", "train_episodes", "test_episodes",
         "epochs", "batch_size", "d_f", "hidden", "horizon"), "[1, inf)"),
        "n_instr": "[0, inf)", "seed": "[0, inf)", "lam1": "[0, 1)",
        "lam2": "[0, 1)", "lam3": "[0, 1)", "omega": "[0, 1]",
        "fisher_fraction": "(0, 1]", "lr": "(0, inf)",
        "feature_noise": "(0, 1e6]", "epsilon": "(0, inf)",
        **dict.fromkeys(("scene_scale", "env_scale", "instr_scale"),
                        "[-1e6, 1e6]")}

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
        if self.adapter_kind not in VALID_KINDS:
            raise ConfigError(
                f"adapter_kind: {self.adapter_kind!r} is not one of {VALID_KINDS}")
        check_ranges(self, self.RANGES)
        if self.lam1 + self.lam2 + self.lam3 >= 1.0:
            raise ConfigError("lam1+lam2+lam3: must sum to < 1")
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
        name = max(("n_scenes", "n_envs", "n_instr"), key=lambda k: getattr(self, k))
        if self.d_f < getattr(self, name):
            raise ConfigError(f"{name}: {getattr(self, name)} expert keys need "
                              f"as many dims, d_f is {self.d_f}")
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
        write_atomic(Path(path), json.dumps(
            dataclasses.asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_file(cls, path: str | Path,
                  overrides: dict | None = None) -> "ExperimentConfig":
        """The config a JSON file holds, with ``overrides`` on top."""
        try:
            raw = read_json(Path(path), dict)
        except OSError as exc:
            raise ConfigError(f"config file {path}: cannot read it ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"config file {exc}") from exc
        return cls.from_dict({**raw, **(overrides or {})})

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: check_field(cls, k, v) for k, v in raw.items()}).validate()

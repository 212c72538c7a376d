"""The run directory: the one module that names its files, and their
writers and readers. Each file, with its writer, its reader and what a
resumed ``train`` does with it:

  file                          writer                reader          resume
  manifest.json                 open_run(train=True)  open_run        keep
  config.json                   open_run(train=True)  none; --config  rewrite
  train_log.jsonl               append_log            trim_log        trim
  reference.json                write_reference,      read_reference  rebuild
                                after training
  task_NNN/adapter_L{l}.npz,    save_state            load_state      keep
    fisher.npz, store.npz, state.json
  task_NNN/complete.marker      save_state, last      sealed_count,   keep
                                                      final_state
  eval/                         cli eval (metrics)    cli report      keep

Only the existence of a marker is read: a task without one is trained again.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np

from .adapters import AdapterBase, FlatLayout
from .config import ExperimentConfig
from .metrics import TaskScore
from .retrieval import FeatureStore
from .runfiles import check_record, open_npz, read_json, write_atomic
from .tasks import TaskDescriptor, World, gen_stream

MANIFEST, CONFIG, LOG = "manifest.json", "config.json", "train_log.jsonl"
REFERENCE, EVAL_DIR = "reference.json", "eval"
STATE, FISHER, STORE, MARKER = "state.json", "fisher.npz", "store.npz", "complete.marker"


@dataclasses.dataclass
class LifelongState:
    """Everything the sequential trainer carries between tasks. ``trained``,
    the tasks trained so far in order, is the first ``task_count`` tasks of
    the config's stream in a run; what ``state.json`` records follows from it.
    """

    cfg: ExperimentConfig
    adapters: list[AdapterBase]
    store: FeatureStore
    # Fisher over the shared slots of FlatLayout.of(adapters)
    fisher: np.ndarray | None = None
    trained: list[TaskDescriptor] = dataclasses.field(default_factory=list)

    @property
    def task_count(self) -> int:
        return len(self.trained)

    @property
    def pair_to_task(self) -> dict[tuple[int, int], int]:
        return {(t.scene, t.env): i for i, t in enumerate(self.trained)}

    def record(self) -> dict:
        """The ``state.json`` that ``save_state`` writes and ``load_state`` checks."""
        triples = sorted([t.scene, t.env, i] for i, t in enumerate(self.trained))
        return {
            "task_count": self.task_count,
            "seen_scenes": sorted({t.scene for t in self.trained}),
            "seen_envs": sorted({t.env for t in self.trained}),
            "seen_instr": sorted({t.instr for t in self.trained} - {None}),
            "seen_pairs": [[s, e] for s, e, _ in triples],
            "pair_to_task": triples,
            "kind": self.cfg.adapter_kind,
            "seed": self.cfg.seed,
            "rng_scheme": "default_rng([seed, tag, task, ...]) per draw site",
        }


def task_dir(run_dir: str | Path, t: int) -> Path:
    return Path(run_dir) / f"task_{t:03d}"


def open_run(cfg: ExperimentConfig, run_dir: str | Path,
             train: bool = False) -> tuple[World, list[TaskDescriptor]]:
    """Validate ``cfg`` and return its world and task stream, refusing a
    ``run_dir`` whose manifest names another config or that holds task
    checkpoints without a manifest. With ``train`` a directory with neither
    is created and its manifest written, and config.json is always rewritten."""
    cfg.validate()
    root = Path(run_dir)
    world = World(cfg.world_config())
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    manifest = {"config_hash": cfg.config_hash(),
                "stream": [[t.scene, t.env] for t in stream]}
    if (root / MANIFEST).exists():
        found = read_json(root / MANIFEST, dict)
        if found.get("config_hash") != manifest["config_hash"]:
            raise ValueError(
                f"run directory {run_dir} belongs to a different config "
                f"(hash {found.get('config_hash')} != {manifest['config_hash']})")
        check_record(root / MANIFEST, found, manifest)
    elif any(root.glob("task_*")):
        raise ValueError(f"no {MANIFEST} at {root / MANIFEST}, though the "
                         "directory holds task checkpoints: no config can resume it")
    elif train:
        root.mkdir(parents=True, exist_ok=True)
        write_atomic(root / MANIFEST, json.dumps(manifest, indent=2))
    if train:
        write_atomic(root / CONFIG, json.dumps(
            dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    return world, stream


def sealed_count(run_dir: str | Path, n_tasks: int) -> int:
    """How many of the first ``n_tasks`` tasks are sealed, counted in order."""
    return next((t for t in range(n_tasks)
                 if not (task_dir(run_dir, t) / MARKER).exists()), n_tasks)


def append_log(run_dir: str | Path, logs: list[dict]) -> None:
    with (Path(run_dir) / LOG).open("a") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in logs)


def trim_log(run_dir: str | Path, completed: int) -> None:
    """Keep only the training-log lines of the first ``completed`` tasks.
    A last line cut short mid-write is dropped; any other line that is not
    a JSON object with an int "task" raises a ValueError naming the line."""
    path = Path(run_dir) / LOG
    if not path.exists():
        return
    lines = path.read_text().splitlines(keepends=True)
    kept = []
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) and not line.endswith("\n"):
                continue   # cut short mid-write
            record = None
        if not (isinstance(record, dict) and type(record.get("task")) is int):
            raise ValueError(f"{path}: line {number}: expected a JSON object "
                             f'with an int "task", got {line.strip()!r}')
        if record["task"] < completed:
            kept.append(line)
    if len(kept) != len(lines):
        write_atomic(path, "".join(kept))


def reference_entry(task: TaskDescriptor, score: TaskScore) -> dict:
    return {"task": task.index, "scene": task.scene, "env": task.env,
            "sr": score.sr, "spl": score.spl, "osr": score.osr}


def write_reference(run_dir: str | Path, cfg: ExperimentConfig, values: dict) -> None:
    write_atomic(Path(run_dir) / REFERENCE, json.dumps(
        {"config_hash": cfg.config_hash(), "values": values}, indent=2))


def read_reference(run_dir: str | Path, cfg: ExperimentConfig,
                   fallback: str) -> dict:
    """The task entries cached in ``reference.json``: {} when it does not
    exist, and {} with a warning that ends with ``fallback``, what the
    caller does then, unless it is ``{"config_hash": cfg's hash, "values":
    {task: entry}}`` with each entry the `reference_entry` of a task of
    cfg's stream and a score row that `TaskScore.from_row` takes."""
    path = Path(run_dir) / REFERENCE
    if not path.exists():
        return {}
    stream = {str(t.index): t for t in gen_stream(
        cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed, n_instr=cfg.n_instr)}
    try:
        found = read_json(path, dict)
        values = found.get("values")
        if not isinstance(values, dict):
            raise ValueError('expected a "values" object')
        for key, entry in values.items():
            task = stream.get(key)
            if task is None:
                raise ValueError(f"{key!r} is not a task index of the stream")
            expected = reference_entry(task, TaskScore.from_row(entry, f"task {key}"))
            if entry != expected:
                raise ValueError(f"task {key}: expected {expected}, got {entry}")
        if found.get("config_hash") != cfg.config_hash():
            raise ValueError(f"config_hash {found.get('config_hash')!r} is "
                             f"not the config's {cfg.config_hash()!r}")
        return values
    except ValueError as exc:
        warnings.warn(f"reference cache {path} is corrupted ({exc}); {fallback}")
        return {}


def save_state(state: LifelongState, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    provenance = {"seed": state.cfg.seed, "ranks": list(state.cfg.ranks)}
    for l, ad in enumerate(state.adapters):
        ad.save(directory / f"adapter_L{l}.npz", provenance)
    np.savez(directory / FISHER,
             **FlatLayout.of(state.adapters).views(state.fisher))
    state.store.save(directory / STORE)
    (directory / STATE).write_text(json.dumps(state.record(), indent=2))
    (directory / MARKER).write_text("ok\n")


def load_state(cfg: ExperimentConfig, directory: str | Path,
               n_layers: int) -> LifelongState:
    """The state ``save_state`` sealed in ``directory``: its trained tasks are
    the first ``task_count`` of the config's stream, and a ``state.json`` that
    is not exactly their ``record()`` is a ValueError naming each wrong key.
    The adapters' kind is checked before the record."""
    directory = Path(directory)
    state_file = directory / STATE
    meta = read_json(state_file, dict)
    count = meta.get("task_count")
    if type(count) is not int:
        raise ValueError(f"{state_file}: task_count: expected an int, got {count!r}")
    adapters = []
    for l in range(n_layers):
        path = directory / f"adapter_L{l}.npz"
        adapters.append(AdapterBase.load(path))
        if adapters[-1].kind != cfg.adapter_kind:
            raise ValueError(f"checkpoint {path} holds a {adapters[-1].kind!r} "
                             f"adapter, the config asks for {cfg.adapter_kind!r}")
    store_file = directory / STORE
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed,
                        n_instr=cfg.n_instr)
    state = LifelongState(cfg=cfg, adapters=adapters,
                          store=FeatureStore.load(store_file),
                          trained=stream[:count])
    record = state.record()
    check_record(state_file, meta, record)
    # train_task adds one feature per trained pair, so the store holds
    # exactly the trained scenes and envs
    for kind, table in (("scene", state.store.scenes), ("env", state.store.envs)):
        if sorted(table.counts) != record[f"seen_{kind}s"]:
            raise ValueError(
                f"{store_file}: {kind}_ids: expected the {kind}s of the trained "
                f"pairs {record[f'seen_{kind}s']}, got {sorted(table.counts)}")
    layout = FlatLayout.of(adapters)
    state.fisher = np.empty(layout.n_shared)
    views = layout.views(state.fisher)
    with open_npz(directory / FISHER) as data:
        for key in sorted(views.keys() | set(data.files)):
            array = data[key]
            block = views[key].shape if key in views else "no shared block"
            if array.shape != block:
                raise ValueError(f"{key} has shape {array.shape}, expected {block}")
            views[key][...] = array
    return state


def final_state(cfg: ExperimentConfig, run_dir: str | Path
                ) -> tuple[World, list[TaskDescriptor], LifelongState]:
    """The world, the task stream and the last checkpoint of a finished run."""
    world, stream = open_run(cfg, run_dir)
    last = task_dir(run_dir, cfg.n_tasks - 1)
    if not (last / MARKER).exists():
        raise FileNotFoundError(f"task {cfg.n_tasks - 1} is not complete: no "
                                f"{last / MARKER}; run training first")
    return world, stream, load_state(cfg, last, len(world.backbone.layer_dims))

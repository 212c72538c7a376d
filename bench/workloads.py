"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload drives the library entry points the CLI commands call:
``pipeline.run_training`` (``train``), ``pipeline.run_eval`` (``eval``) and
``degrade.degrade_directory`` (``degrade``). Its inputs derive from the seed
alone. A workload has

- ``setup(root)``: prepares the inputs of the next pass, timed as ``setup_s``;
- ``execute(root)``: one timed pass, returning seconds per library call;
- ``verify(root)``: output checks after the pass, returning the failed
  checks and sha256 digests of the outputs.

README.md explains why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

# A lifelong pass trains and scores the whole default 20-task stream with a
# tenth of the default epochs (30) and held-out episodes (100). README.md
# "Traced breakdown" compares its per-step layers with a full-length run.
LIFELONG_EPOCHS = 3
LIFELONG_TEST_EPISODES = 10
# Held-out episodes per task in eval_retrieval (the default config uses 100).
EVAL_EPISODES = 200
# degrade_batch input: images of one VGA size.
N_IMAGES = 8
IMAGE_SHAPE = (480, 640)
DEGRADE_MODES = ("scattering", "lowlight", "overexposure")
# the operator degrade_directory applies in each mode
DEGRADE_OPS = ("scatter", "low_light", "overexpose")


def _digest_npz(paths) -> str:
    """sha256 over array names, dtypes, shapes and bytes; the zip container
    itself is not hashed because it stores the file's write time."""
    h = hashlib.sha256()
    for path in sorted(paths):
        with np.load(path, allow_pickle=False) as data:
            for key in sorted(data.files):
                arr = np.ascontiguousarray(data[key])
                h.update(f"{Path(path).name}:{key}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(arr.tobytes())
    return h.hexdigest()


def _digest_scores(scores) -> str:
    rows = [[s.task, s.sr, s.spl, s.osr] for s in scores]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _score_range_failures(scores) -> list[str]:
    return [f"task {s.task}: {field}={value!r} outside [0, 1]"
            for s in scores
            for field, value in (("sr", s.sr), ("spl", s.spl), ("osr", s.osr))
            if not 0.0 <= value <= 1.0]


class Lifelong:
    """Train the default stream with eval after each task, then score every
    task with the final checkpoint (``train`` then ``eval``)."""

    def __init__(self, seed: int, kind: str, **overrides):
        from tucker_adapters.config import ExperimentConfig

        overrides = {"epochs": LIFELONG_EPOCHS,
                     "test_episodes": LIFELONG_TEST_EPISODES, **overrides}
        if kind == "lora":  # the baseline trains without consolidation terms
            overrides = {"lam1": 0.0, "lam2": 0.0, "lam3": 0.0, **overrides}
        self.cfg = ExperimentConfig(seed=seed, adapter_kind=kind,
                                    **overrides).validate()
        self.config_hash = self.cfg.config_hash()
        self.ops_per_pass = 2 * self.cfg.n_tasks   # trained + evaluated tasks
        self.scores = []

    def setup(self, root: Path) -> None:
        """Build the world, stream and initial adapters the checks compare
        against, and warm up with a one-task, one-epoch run so that lazy
        imports and first calls are paid before the timed passes."""
        from tucker_adapters import pipeline
        from tucker_adapters.tasks import World, gen_stream

        cfg = self.cfg
        self.world = World(cfg.world_config())
        self.stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks,
                                 cfg.seed, n_instr=cfg.n_instr)
        self.initial = pipeline.init_state(cfg, self.world)
        warmup = dataclasses.replace(cfg, n_tasks=1, epochs=1)
        pipeline.run_training(warmup, root, eval_each=True)
        pipeline.run_eval(warmup, root)

    def execute(self, root: Path) -> dict[str, float]:
        from tucker_adapters import pipeline

        t0 = time.perf_counter()
        pipeline.run_training(self.cfg, root, eval_each=True)
        t1 = time.perf_counter()
        self.scores = pipeline.run_eval(self.cfg, root)
        t2 = time.perf_counter()
        return {"train_s": t1 - t0, "eval_s": t2 - t1}

    def verify(self, root: Path) -> tuple[list[str], dict[str, str]]:
        from tucker_adapters import pipeline
        from tucker_adapters.adapters import Selection

        failures = _score_range_failures(self.scores)
        if len(self.scores) != self.cfg.n_tasks:
            failures.append(f"{len(self.scores)} scores for {self.cfg.n_tasks} tasks")
        last = self.scores[-1] if self.scores else None
        if last is not None and (last.sr, last.spl, last.osr) != (
                last.m_sr, last.m_spl, last.m_osr):
            failures.append("last task: final eval differs from its eval-each "
                            f"reference ({last.sr}, {last.spl}, {last.osr}) != "
                            f"({last.m_sr}, {last.m_spl}, {last.m_osr})")
        n_layers = len(self.world.backbone.layer_dims)
        previous = self.initial.adapters
        for t, task in enumerate(self.stream):
            current = pipeline.load_state(
                self.cfg, pipeline.task_dir(root, t), n_layers).adapters
            sel = Selection(scene=task.scene, env=task.env, instr=task.instr,
                            task=t)
            failures += _frozen_row_failures(t, previous, current, sel)
            previous = current
        last_dir = pipeline.task_dir(root, self.cfg.n_tasks - 1)
        return failures, {"last_task_npz": _digest_npz(last_dir.glob("*.npz")),
                          "scores": _digest_scores(self.scores)}


def _frozen_row_failures(t, previous, current, sel) -> list[str]:
    """Every expert row but the current task's must be bitwise unchanged."""
    failures = []
    for layer, (before, after) in enumerate(zip(previous, current)):
        old, new = before.blocks(), after.blocks()
        for name in before.expert_axes:
            trained = before.expert_index(name, sel)
            for row in range(old[name].shape[0]):
                if row != trained and old[name][row].tobytes() != new[name][row].tobytes():
                    failures.append(f"task {t}: frozen row L{layer}:{name}[{row}] changed")
    return failures


class EvalRetrieval:
    """Score an enlarged held-out set with retrieved experts (``eval``)."""

    def __init__(self, seed: int, eval_episodes: int = EVAL_EPISODES, **overrides):
        from tucker_adapters.config import ExperimentConfig

        # the retrieval store depends on the training data, not on epochs, so
        # a one-epoch checkpoint gives the same lookups as the default one
        overrides = {"epochs": 1, **overrides}
        self.cfg = ExperimentConfig(seed=seed, test_episodes=eval_episodes,
                                    **overrides).validate()
        self.config_hash = self.cfg.config_hash()
        self.ops_per_pass = self.cfg.n_tasks
        self.scores = []

    def setup(self, root: Path) -> None:
        from tucker_adapters import pipeline

        pipeline.run_training(self.cfg, root, eval_each=False)
        self.checkpoint = root

    def execute(self, root: Path) -> dict[str, float]:
        from tucker_adapters import pipeline

        t0 = time.perf_counter()
        self.scores = pipeline.run_eval(self.cfg, self.checkpoint)
        return {"eval_s": time.perf_counter() - t0}

    def verify(self, root: Path) -> tuple[list[str], dict[str, str]]:
        failures = _score_range_failures(self.scores)
        if len(self.scores) != self.cfg.n_tasks:
            failures.append(f"{len(self.scores)} scores for {self.cfg.n_tasks} tasks")
        return failures, {"scores": _digest_scores(self.scores)}


def synthetic_scene(rng: np.random.Generator, shape: tuple[int, int]):
    """A smooth colour image in [0, 1] and a depth map in metres (far at the top)."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w]
    y, x = y / h, x / w
    freq = rng.uniform(0.5, 3.0, size=(3, 2))
    phase = rng.uniform(0.0, 2 * np.pi, size=3)
    img = np.stack([0.5 + 0.45 * np.sin(2 * np.pi * (fx * x + fy * y) + p)
                    for (fx, fy), p in zip(freq, phase)], axis=-1)
    img = np.clip(img + 0.03 * rng.standard_normal(img.shape), 0.0, 1.0)
    depth = 2.0 + 250.0 * (1.0 - y) ** 2 + rng.uniform(0.0, 5.0, size=shape)
    return img, depth


class DegradeBatch:
    """Degrade a directory of PPM images in all three modes (``degrade``)."""

    def __init__(self, seed: int, n_images: int = N_IMAGES,
                 shape: tuple[int, int] = IMAGE_SHAPE):
        self.seed, self.n_images, self.shape = seed, n_images, shape
        self.config_hash = hashlib.sha256(
            json.dumps([n_images, list(shape), DEGRADE_MODES]).encode()).hexdigest()[:16]
        self.ops_per_pass = len(DEGRADE_MODES) * n_images
        self.manifests = {}

    def setup(self, root: Path) -> None:
        from tucker_adapters.degrade import save_depth, save_image

        rng = np.random.default_rng([self.seed, 41])
        self.images, self.depths = root / "images", root / "depth"
        self.images.mkdir(parents=True, exist_ok=True)
        self.depths.mkdir(parents=True, exist_ok=True)
        for i in range(self.n_images):
            img, depth = synthetic_scene(rng, self.shape)
            save_image(self.images / f"view{i:03d}.ppm", img)
            save_depth(self.depths / f"view{i:03d}.pgm", depth)

    def execute(self, root: Path) -> dict[str, float]:
        from tucker_adapters.degrade import degrade_directory

        times = {}
        for mode in DEGRADE_MODES:
            t0 = time.perf_counter()
            self.manifests[mode] = degrade_directory(
                mode, self.images, root / mode, seed=self.seed,
                depth_dir=self.depths if mode == "scattering" else None)
            times[f"{mode}_s"] = time.perf_counter() - t0
        return times

    def verify(self, root: Path) -> tuple[list[str], dict[str, str]]:
        from tucker_adapters.degrade import load_image

        failures, h = [], hashlib.sha256()
        for mode in DEGRADE_MODES:
            manifest = self.manifests.get(mode, {})
            outputs = sorted((root / mode).glob("*.ppm"))
            if manifest.get("count") != self.n_images or len(outputs) != self.n_images:
                failures.append(f"{mode}: manifest count {manifest.get('count')}, "
                                f"{len(outputs)} outputs, {self.n_images} inputs")
            for path in outputs:
                img = load_image(path)
                if img.shape != self.shape + (3,):
                    failures.append(f"{mode}/{path.name}: shape {img.shape}")
                h.update(path.read_bytes())
        failures += self._range_failures(root / "probe")
        return failures, {"outputs": h.hexdigest()}

    def _range_failures(self, root: Path) -> list[str]:
        """Degrade the first image again in each mode and check the float
        arrays the operators return, before ``save_image`` clips and
        quantizes them: finite and within [0, 1]."""
        from tucker_adapters import degrade

        first = sorted(self.images.glob("*.ppm"))[0]
        images = root / "images"
        images.mkdir(parents=True)
        shutil.copy(first, images / first.name)
        failures = []
        for mode, op in zip(DEGRADE_MODES, DEGRADE_OPS):
            original, returned = getattr(degrade, op), []

            def keep(*args, **kwargs):
                returned.append(original(*args, **kwargs))
                return returned[-1]

            setattr(degrade, op, keep)
            try:
                degrade.degrade_directory(
                    mode, images, root / mode, seed=self.seed,
                    depth_dir=self.depths if mode == "scattering" else None)
            finally:
                setattr(degrade, op, original)
            if not returned:
                failures.append(f"{mode}: degrade_directory did not call {op}")
            for out in returned:
                if not (np.all(np.isfinite(out)) and out.min() >= 0.0
                        and out.max() <= 1.0):
                    failures.append(f"{mode}/{first.name}: {op} returned "
                                    "values outside [0, 1]")
        return failures


WORKLOADS = {
    "lifelong_tucker4": lambda seed: Lifelong(seed, "tucker4"),
    "lifelong_lora": lambda seed: Lifelong(seed, "lora"),
    "eval_retrieval": EvalRetrieval,
    "degrade_batch": DegradeBatch,
}

"""Run loop shared by every workload: set-up, timed passes, checks, metrics.

One process and one closed-loop client: a run repeats cycles of set-up and
one pass, each starting when the previous one has finished and been checked,
until the next cycle would end past ``seconds``. A cycle repeats the set-up
until it has spent ``SETUP_MIN_S`` on it, so that a short set-up is sampled
several times, and the samples spread over the whole run.

An untraced run reports the end-to-end metrics: ``setup_s`` is the median
set-up sample and ``run_s`` the mean pass time, that is the run's timed work
over its passes. Co-tenant load on a shared host comes in phases of seconds
to minutes; the mean averages over all the phases a run saw, where the
median of a few passes follows whichever phase held most of them.

A traced run alternates untraced and traced passes, starting untraced; a
traced pass wraps the library (see ``layers.py``). It reports the per-layer
metrics of its first traced pass, and ``trace.overhead_share`` = mean traced
pass time / mean untraced pass time - 1.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import layers
from tracer import Tracer

# set-up and pass pairs per run, even when they overrun the window: set-up
# time is a median, and a traced run needs untraced passes on both sides
MIN_CYCLES = 3
# set-up seconds per cycle, in as many whole set-ups as it takes
SETUP_MIN_S = 1.0


def run_workload(workload, seconds: float, trace: bool, work_dir: Path):
    """Returns (result, record, tracer): ``result`` holds exactly the keys the
    benchmark prints last, ``record`` the full detail of the run."""
    setup_s, cycle_setup_s, passes = [], [], []
    tracer = None   # the first traced pass's, which the metrics come from
    start = time.perf_counter()
    while True:
        setup_dir = work_dir / f"setup{len(passes)}"
        cycle_setup_s.append(0.0)
        while True:   # the pass uses the last set-up
            shutil.rmtree(setup_dir, ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup(setup_dir)
            setup_s.append(time.perf_counter() - t0)
            cycle_setup_s[-1] += setup_s[-1]
            if cycle_setup_s[-1] >= SETUP_MIN_S:
                break
        pass_tracer = Tracer() if trace and len(passes) % 2 else None
        tracer = tracer or pass_tracer
        done = _one_pass(workload, work_dir / f"pass{len(passes)}", pass_tracer)
        shutil.rmtree(setup_dir, ignore_errors=True)
        if passes and not done["failures"] and done["digest"] != passes[0]["digest"]:
            done["failures"].append("outputs differ from the first pass")
        passes.append(done)
        elapsed = time.perf_counter() - start
        cycle = statistics.median(cycle_setup_s) + statistics.median(
            p["wall_s"] for p in passes)
        if len(passes) >= MIN_CYCLES and elapsed + cycle > seconds:
            break

    failed_passes = sum(1 for p in passes if p["failures"])
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if trace:
        metrics = layers.layer_metrics(tracer)
        traced = [p["wall_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_share"] = (statistics.fmean(traced)
                                           / statistics.fmean(untraced) - 1.0)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "run_s": statistics.fmean(untraced),
                   "peak_rss_mb": peak_rss_mb()}
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": failed_passes == 0,
        "attempted": workload.ops_per_pass * len(passes),
        "failed": workload.ops_per_pass * failed_passes,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"setup_s": setup_s, "passes": passes,
              "config_hash": workload.config_hash}
    return result, record, tracer


def _one_pass(workload, root: Path, tracer) -> dict:
    """Execute and check one pass; an exception or a failed check marks the
    pass failed instead of ending the run."""
    root.mkdir(parents=True, exist_ok=True)
    times, failures, digest = {}, [], {}
    if tracer is not None:
        layers.instrument(tracer)
    t0 = time.perf_counter()
    try:
        try:
            times = workload.execute(root)
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        failures, digest = workload.verify(root)
    except Exception as exc:  # reported as failed ops, not as a crash
        traceback.print_exc(file=sys.stderr)
        failures = [f"{type(exc).__name__}: {exc}"]
    shutil.rmtree(root, ignore_errors=True)
    return {"traced": tracer is not None, "wall_s": wall_s, "times": times,
            "failures": failures, "digest": digest}


def peak_rss_mb() -> float:
    """High-water resident set size of this process (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(root)}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout; None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:   # no git on this machine
        return None
    return done.stdout.strip() if done.returncode == 0 else None

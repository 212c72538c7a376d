"""Lifelong learning on a synthetic multi-hierarchical task stream.

Trains the tensor adapter with the full consolidation objective over a short
stream of (scene, environment) scenarios, then trains a single sequential
low-rank baseline on the same stream, and compares final success and
forgetting. Runs in about ten seconds.
"""

import tempfile
from pathlib import Path

import numpy as np

from tucker_adapters import ExperimentConfig
from tucker_adapters.metrics import forgetting_rate, render_table
from tucker_adapters.pipeline import run_eval, run_training

work = Path(tempfile.mkdtemp(prefix="lifelong_demo_"))
print(f"working under {work}\n")

N_TASKS = 8
results = {}
for label, cfg in [
    ("tensor adapter + consolidation",
     ExperimentConfig(adapter_kind="tucker4", n_tasks=N_TASKS, seed=1)),
    ("sequential low-rank fine-tune",
     ExperimentConfig(adapter_kind="lora", lam1=0.0, lam2=0.0, lam3=0.0,
                      n_tasks=N_TASKS, seed=1)),
]:
    run_dir = work / cfg.adapter_kind
    print(f"--- training: {label} ---")
    run_training(cfg, run_dir, progress=lambda m: print(f"  {m}"))
    scores = run_eval(cfg, run_dir)
    results[label] = scores
    print()

for label, scores in results.items():
    sr = np.mean([s.sr for s in scores])
    f_sr = np.mean([forgetting_rate(s.m_sr, s.sr) for s in scores
                    if s.m_sr and s.m_sr > 0])
    print(f"{label}: final avg SR = {sr:.3f}, avg F-SR = {f_sr:.3f}")

for label, scores in results.items():
    print(f"\nPer-task table: {label} "
          "(M-columns are the prefix-run references)\n")
    print(render_table(scores))

print("Frozen per-scenario expert rows plus consolidation keep average "
      "forgetting below the sequential baseline, which ends tuned to the "
      "last task only. Early tasks still drift at this desk scale because "
      "the small shared core keeps being refined by later tasks.")

"""Tensor adapters from the ground up.

Walks through the mode-n product, full Tucker reconstruction, the
per-scenario adapter extraction that every ``TuckerAdapter.delta`` runs, and
the exact parameter counts of every adapter family at the reference
dimensions.
"""

import numpy as np

from tucker_adapters import (
    AbcLoraAdapter,
    LoraAdapter,
    Selection,
    SharedAMoeAdapter,
    TaskLoraAdapter,
    TuckerAdapter,
    contract_adapter,
    mode_n_product,
    tucker_reconstruct,
)

rng = np.random.default_rng(0)

print("=== mode-n products ===")
t = rng.standard_normal((2, 3, 4))
m = rng.standard_normal((5, 3))
out = mode_n_product(t, m, mode=1)
print(f"contracting a (5,3) matrix into axis 1 of a {t.shape} tensor "
      f"gives {out.shape}")
ident = mode_n_product(t, np.eye(3), mode=1)
print(f"identity factor leaves the tensor unchanged: "
      f"max |diff| = {np.max(np.abs(ident - t)):.1e}")

print("\n=== Tucker reconstruction ===")
core = rng.standard_normal((2, 2, 2, 2))
factors = [rng.standard_normal((d, 2)) for d in (4, 5, 3, 2)]
full = tucker_reconstruct(core, factors)
print(f"a {core.shape} core with factors {[f.shape for f in factors]} "
      f"expands to {full.shape}")

print("\n=== adapter extraction ===")
# one row per scene expert and per environment expert selects a 2-D update
u1, u2 = factors[0], factors[1]
scene_rows, env_rows = factors[2], factors[3]
s, e = 1, 0
delta = contract_adapter(core, u1, u2, scene_rows[s], env_rows[e])
print(f"selecting scene row {s} and environment row {e} yields a "
      f"{delta.shape} weight update")
print(f"it equals the corresponding slice of the full reconstruction: "
      f"max |diff| = {np.max(np.abs(delta - full[:, :, s, e])):.1e}")
# a TuckerAdapter over the same core and factors runs this one contraction
adapter = TuckerAdapter(core, up=u1, down=u2, scene_experts=scene_rows,
                        env_experts=env_rows)
ad_delta = adapter.delta(Selection(scene=s, env=e))
print(f"TuckerAdapter.delta(Selection(scene={s}, env={e})) equals it bit for "
      f"bit: {ad_delta.tobytes() == delta.tobytes()}")
print(f"it matches the reconstruction slice too: "
      f"max |diff| = {np.max(np.abs(ad_delta - full[:, :, s, e])):.1e}")

print("\n=== the adapter zoo at reference dimensions (a = b = 1024) ===")
kinds = [
    ("4-D tensor adapter, ranks (8,8,64,64), 7 scenes x 4 envs",
     TuckerAdapter.init(1024, 1024, (8, 8, 64, 64), 7, 4, rng).param_count()),
    ("per-task low-rank (rank 6) x 24 tasks",
     TaskLoraAdapter.init(1024, 1024, 6, [rng] * 24).param_count()),
    ("single low-rank, rank 128",
     LoraAdapter.init(1024, 1024, 128, rng).param_count()),
    ("shared-down mixture, rank 12, 24 experts",
     SharedAMoeAdapter.init(1024, 1024, 12, 24, rng).param_count()),
    ("three-level chain (48 / 5x48x48 / 4x48)",
     AbcLoraAdapter.init(1024, 1024, 48, 48, 5, 4, rng).param_count()),
]
for name, count in kinds:
    print(f"  {count:>9,}  {name}")

print("\n=== zero-initialized experts leave the backbone untouched ===")
ad = TuckerAdapter.init(64, 64, (4, 4, 8, 8), 5, 4, np.random.default_rng(1))
d0 = ad.delta(Selection(scene=0, env=0))
print(f"freshly initialized update norm: {np.linalg.norm(d0):.2e} "
      "(tiny, so training starts from the frozen backbone)")
ad.scene_experts[0] = 0.0
print(f"with a zeroed scene row the update is exactly zero: "
      f"{np.linalg.norm(ad.delta(Selection(scene=0, env=0))):.1f}")

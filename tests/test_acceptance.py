"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 trains 3 seeds x 2 methods x 20 tasks, one contiguous
share of its six runs per CPU the process may use (`config.forked_map`),
and dominates the runtime: about 29 s on two cores. Everything else
finishes in seconds.
"""

import copy
import functools
import json
import math

import numpy as np
import pytest

from tucker_adapters.adapters import (
    AbcLoraAdapter,
    FlatLayout,
    LoraAdapter,
    Selection,
    SharedAMoeAdapter,
    TaskLoraAdapter,
    TuckerAdapter,
    audit_task,
    block_key,
)
from tucker_adapters.config import ExperimentConfig, forked_map
from tucker_adapters.degrade import (
    LowLightParams,
    OverexposeParams,
    ScatterParams,
    low_light,
    overexpose,
    scatter,
)
from tucker_adapters.metrics import (
    EpisodeRecord,
    forgetting_rate,
    oracle_success,
    score_rows,
    spl,
    success_rate,
)
from tucker_adapters.pipeline import (
    final_state,
    init_state,
    run_eval,
    run_gradcheck,
    run_training,
    task_dir,
    train_task,
)
from tucker_adapters.retrieval import FeatureStore
from tucker_adapters.tasks import (
    TaskDescriptor,
    World,
    gen_episode,
    gen_stream,
)
from tucker_adapters.tensor_ops import contract_adapter, tucker_reconstruct
from tucker_adapters.training import build_plan, regularizer_terms


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number:02d} {name}: PASS")
        return wrapper
    return decorate


def tiny_config(**kw):
    base = dict(n_scenes=3, n_envs=2, n_tasks=3, d_f=16, hidden=12, horizon=8,
                train_episodes=12, test_episodes=8, epochs=4, lr=3e-3, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# 1. Parameter-count exactness (zero tolerance)
# ---------------------------------------------------------------------------

@criterion(1, "parameter-count exactness")
def test_c1_parameter_counts():
    rng = np.random.default_rng(0)
    tucker = TuckerAdapter.init(a=1024, b=1024, ranks=(8, 8, 64, 64),
                                n_scenes=7, n_envs=4, rng=rng)
    assert tucker.param_count() == 279_232
    per_task = TaskLoraAdapter.init(a=1024, b=1024, rank=6, rngs=[rng] * 24)
    assert per_task.param_count() == 294_912
    single = LoraAdapter.init(a=1024, b=1024, rank=128, rng=rng)
    assert single.param_count() == 262_144
    moe = SharedAMoeAdapter.init(a=1024, b=1024, rank=12, n_experts=24, rng=rng)
    assert moe.param_count() == 307_200
    abc = AbcLoraAdapter.init(a=1024, b=1024, rank_base=48, rank_mid=48,
                              n_scenes=5, n_envs=4, rng=rng)
    assert abc.param_count() == 257_280


# ---------------------------------------------------------------------------
# 2. Tensor oracle equivalence (>= 100 random instances, 1e-10 absolute)
# ---------------------------------------------------------------------------

def _loop_expand(core, factors):
    out = np.zeros(tuple(f.shape[0] for f in factors))
    for idx in np.ndindex(*out.shape):
        acc = 0.0
        for jdx in np.ndindex(*core.shape):
            term = core[jdx]
            for mode in range(core.ndim):
                term *= factors[mode][idx[mode], jdx[mode]]
            acc += term
        out[idx] = acc
    return out


@criterion(2, "tensor oracle equivalence")
def test_c2_tensor_oracles():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        ndim = int(rng.integers(3, 5))
        core_shape = tuple(int(d) for d in rng.integers(1, 5, size=ndim))
        out_dims = tuple(int(d) for d in rng.integers(1, 5, size=ndim))
        core = rng.standard_normal(core_shape)
        factors = [rng.standard_normal((o, r))
                   for o, r in zip(out_dims, core_shape)]
        rec = tucker_reconstruct(core, factors)
        assert np.max(np.abs(rec - _loop_expand(core, factors))) < 1e-10
    # the kernel of every Tucker delta, on cores of order 3, 4 and 5
    for trial in range(100):
        ndim = int(rng.integers(3, 6))
        core_shape = tuple(int(d) for d in rng.integers(1, 5, size=ndim))
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        core = rng.standard_normal(core_shape)
        up = rng.standard_normal((a, core_shape[0]))
        down = rng.standard_normal((b, core_shape[1]))
        rows = [rng.standard_normal(r) for r in core_shape[2:]]
        fused = contract_adapter(core, up, down, *rows)
        oracle = _loop_expand(core, [up, down, *(row[None, :] for row in rows)])
        assert np.max(np.abs(fused - oracle.reshape(a, b))) < 1e-10


# ---------------------------------------------------------------------------
# 3. Gradient correctness on the default toy configuration (< 1 min)
# ---------------------------------------------------------------------------

@criterion(3, "gradient correctness vs finite differences")
def test_c3_gradcheck_default_config():
    report = run_gradcheck(ExperimentConfig())
    assert report
    for block, err in report.items():
        assert err < 1e-4, f"{block}: relative error {err}"


# ---------------------------------------------------------------------------
# 4. Null-condition losses (exactly zero; orthonormal rows to 1e-12)
# ---------------------------------------------------------------------------

def _consolidation_losses(rng, u3, u4, shift3, shift4, seen):
    """The three consolidation losses one training step computes for a
    tucker4 layer with expert blocks u3 and u4 whose task selects row 0 of
    each; the snapshot is the layer itself with row 0 of u3 and of u4 moved
    by shift3 and shift4, and ``seen`` flags both the scene and the env."""
    ad = TuckerAdapter(core=rng.standard_normal((3, 3, u3.shape[1], u4.shape[1])),
                       up=rng.standard_normal((4, 3)),
                       down=rng.standard_normal((5, 3)),
                       scene_experts=u3.copy(), env_experts=u4.copy())
    snapshot = {k: v.copy() for k, v in ad.blocks().items()}
    snapshot["scene_experts"][0] += shift3
    snapshot["env_experts"][0] += shift4
    fisher = {k: rng.uniform(0.5, 2.0, size=snapshot[k].shape)
              for k in ad.shared_names}
    layout = FlatLayout.of([ad])
    vectors = np.empty(layout.size), np.empty(layout.n_shared)
    for vector, blocks in zip(vectors, (snapshot, fisher)):
        views = layout.views(vector)
        for k, v in blocks.items():
            views[block_key(0, k)][...] = v
    plan = build_plan([ad], Selection(scene=0, env=0), *vectors,
                      {"scene": seen, "env": seen},
                      ExperimentConfig(lam1=0.2, lam2=0.2, lam3=0.1))
    return regularizer_terms(plan)[0]


@criterion(4, "null-condition losses")
def test_c4_null_conditions():
    rng = np.random.default_rng(4)
    row = rng.standard_normal((1, 5))
    # shared blocks at their snapshot, and a novel task's moved rows
    losses = _consolidation_losses(rng, row, row, 9.0, -4.0, seen=0)
    assert losses["ewc"] == 0.0
    assert losses["consistency"] == 0.0
    ortho = np.linalg.qr(rng.standard_normal((6, 6)))[0][:4]  # orthonormal rows
    losses = _consolidation_losses(rng, ortho, ortho, 0.0, 0.0, seen=0)
    assert abs(losses["orthogonality"]) <= 1e-12
    messy = rng.standard_normal((4, 6))
    losses = _consolidation_losses(rng, messy, messy, 0.0, 0.0, seen=1)
    assert losses["orthogonality"] == 0.0


# ---------------------------------------------------------------------------
# 5. Forgetting ordering: 20-task stream, 3 seeds, strict on every seed
# ---------------------------------------------------------------------------

def _train_and_aggregate(cfg, run_dir):
    """The final SR and F-SR of the report's avg row."""
    run_training(cfg, run_dir)
    avg = score_rows(run_eval(cfg, run_dir))[-1]
    return avg["sr"], avg["f_sr"]


@criterion(5, "forgetting ordering across 3 seeds")
def test_c5_forgetting_ordering(tmp_path):
    """The six independent (method, seed) runs are mapped by
    `config.forked_map`, the fan-out eval uses, one contiguous share per CPU
    the process may use: on two CPUs this process runs tucker 1, seq 1 and
    tucker 2, and one forked child seq 2, tucker 3 and seq 3. One CPU runs
    them one after another."""
    configs = {}
    for seed in (1, 2, 3):
        configs["tucker", seed] = ExperimentConfig(adapter_kind="tucker4", seed=seed)
        configs["seq", seed] = ExperimentConfig(adapter_kind="lora", lam1=0.0,
                                                lam2=0.0, lam3=0.0, seed=seed)
    keys = list(configs)
    results = dict(zip(keys, forked_map(lambda key: _train_and_aggregate(
        configs[key], tmp_path / f"{key[0]}_{key[1]}"), keys)))
    for seed in (1, 2, 3):
        sr_t, f_t = results["tucker", seed]
        sr_s, f_s = results["seq", seed]
        print(f"  seed {seed}: tensor-adapter F-SR={f_t:.3f} SR={sr_t:.3f} | "
              f"sequential F-SR={f_s:.3f} SR={sr_s:.3f}")
        assert f_t < f_s, f"seed {seed}: forgetting ordering violated"
        assert sr_t > sr_s, f"seed {seed}: final SR ordering violated"


# ---------------------------------------------------------------------------
# 6. Expert-freeze isolation (bitwise)
# ---------------------------------------------------------------------------

@criterion(6, "expert-freeze isolation")
def test_c6_expert_freeze():
    cfg = tiny_config(n_tasks=3)
    world = World(cfg.world_config())
    state = init_state(cfg, world)
    for t, task in enumerate(gen_stream(cfg.n_scenes, cfg.n_envs, 3, cfg.seed)):
        before = copy.deepcopy(state.adapters)
        train_task(state, world, task)
        sel = Selection(task.scene, task.env, task.instr, t)
        assert audit_task(before, state.adapters, sel)["frozen_changed"] == [], t


# ---------------------------------------------------------------------------
# 7. Retrieval accuracy and end-to-end retrieved-vs-oracle equality
# ---------------------------------------------------------------------------

@criterion(7, "retrieval accuracy and eval equivalence")
def test_c7_retrieval(tmp_path):
    # accuracy on the default cluster geometry (separation >= 3 sigma)
    wc = ExperimentConfig().world_config()
    assert math.sqrt(2.0) * wc.scene_scale >= 3.0 * wc.feature_noise
    world = World(wc)
    store = FeatureStore(wc.d_f)
    for s in range(wc.n_scenes):
        for e in range(wc.n_envs):
            task = TaskDescriptor(index=s * wc.n_envs + e, scene=s, env=e)
            for ep in gen_episode(world, task, range(20), split=0):
                store.add(s, e, ep.obs[0])
    hits = 0
    for i in range(1000):
        s, e = (i // wc.n_envs) % wc.n_scenes, i % wc.n_envs
        [ep] = gen_episode(world, TaskDescriptor(index=0, scene=s, env=e),
                           [2000 + i], split=1)
        hits += int(store.search(ep.obs[0]) == (s, e))
    assert hits / 1000 >= 0.95, f"retrieval accuracy {hits / 1000}"

    # equality with oracle ids when retrieval is verifiably 100% correct
    cfg = tiny_config(feature_noise=0.05, test_episodes=10)
    run_training(cfg, tmp_path / "run")
    world, _, state = final_state(cfg, tmp_path / "run")
    stream = gen_stream(cfg.n_scenes, cfg.n_envs, cfg.n_tasks, cfg.seed)
    for task in stream:
        for ep in gen_episode(world, task, range(cfg.test_episodes), split=1):
            assert state.store.search(ep.obs[0]) == (task.scene, task.env)
    retrieved = run_eval(cfg, tmp_path / "run", oracle_ids=False)
    oracle = run_eval(cfg, tmp_path / "run", oracle_ids=True)
    for a, b in zip(retrieved, oracle):
        assert (a.sr, a.spl, a.osr) == (b.sr, b.spl, b.osr)


# ---------------------------------------------------------------------------
# 8. Degradation identities and bounds
# ---------------------------------------------------------------------------

@criterion(8, "degradation identities and bounds")
def test_c8_degradations():
    rng = np.random.default_rng(8)
    img = rng.uniform(0.0, 1.0, size=(10, 14, 3))
    depth = rng.uniform(0.1, 400.0, size=(10, 14))
    assert np.array_equal(scatter(img, depth, ScatterParams(beta=0.0)), img)
    expected = 0.5 * math.exp(-2.0) + 0.95 * (1.0 - math.exp(-2.0))
    got = scatter(np.full((1, 1, 3), 0.5), np.full((1, 1), 200.0),
                  ScatterParams(beta=0.01,
                                atmospheric_light=(0.95, 0.95, 0.95)))
    assert np.max(np.abs(got - expected)) < 1e-6
    for out in (scatter(img, depth, ScatterParams()),
                low_light(img, LowLightParams(seed=1)),
                overexpose(img, OverexposeParams(seed=1))):
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.array_equal(low_light(img, LowLightParams(seed=5)),
                          low_light(img, LowLightParams(seed=5)))
    assert np.array_equal(overexpose(img, OverexposeParams(seed=5)),
                          overexpose(img, OverexposeParams(seed=5)))


# ---------------------------------------------------------------------------
# 9. Metric definitions (exact arithmetic)
# ---------------------------------------------------------------------------

@criterion(9, "metric definitions")
def test_c9_metrics():
    rng = np.random.default_rng(9)
    for _ in range(200):
        traj = np.cumsum(rng.standard_normal((6, 2)), axis=0)
        rec = EpisodeRecord(trajectory=traj, goal=rng.standard_normal(2),
                            tl_ref=1.0 + rng.uniform(0, 3), epsilon=1.5)
        assert oracle_success(rec) >= success_rate(rec)
    straight = np.column_stack([np.arange(5.0), np.zeros(5)])
    perfect = EpisodeRecord(trajectory=straight, goal=straight[-1], tl_ref=4.0,
                            epsilon=3.0)
    assert spl(perfect) == 1.0 and spl(perfect, literal=True) == 1.0
    failed = EpisodeRecord(trajectory=straight, goal=np.array([50.0, 0.0]),
                           tl_ref=4.0, epsilon=3.0)
    assert spl(failed) == 0.0
    assert forgetting_rate(0.8, 0.6) == pytest.approx(0.25)
    assert forgetting_rate(0.6, 0.8) < 0.0  # backward transfer goes negative


# ---------------------------------------------------------------------------
# 10. Determinism and resume (bitwise)
# ---------------------------------------------------------------------------

@criterion(10, "determinism and resume")
def test_c10_determinism_resume(tmp_path):
    def payload(run_dir):
        d = task_dir(run_dir, 2)
        return {p.name: p.read_bytes() for p in sorted(d.glob("*.npz"))}

    run_training(tiny_config(), tmp_path / "a")
    run_training(tiny_config(), tmp_path / "b")
    assert payload(tmp_path / "a") == payload(tmp_path / "b")

    class Stop(Exception):
        pass

    count = []

    def interrupt(msg):
        count.append(msg)
        if len(count) == 2:
            raise Stop()

    with pytest.raises(Stop):
        run_training(tiny_config(), tmp_path / "c", progress=interrupt)
    run_training(tiny_config(), tmp_path / "c")
    assert payload(tmp_path / "c") == payload(tmp_path / "a")
    ref_a = json.loads((tmp_path / "a" / "reference.json").read_text())
    ref_c = json.loads((tmp_path / "c" / "reference.json").read_text())
    assert ref_a["values"] == ref_c["values"]

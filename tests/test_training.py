"""Loss terms, Fisher, Adam, analytic gradients vs finite differences, and
the flat training step vs the per-block reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_objective import (
    ReferenceAdam,
    gram_penalty_row_grad,
    reference_step,
)
from reference_objective import gram_penalty as reference_gram_penalty
from scipy.special import log_softmax

from tucker_adapters.adapters import ADAPTER_KINDS, Selection, TuckerAdapter, block_key
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.tasks import (
    SyntheticEpisode,
    TaskDescriptor,
    ToyBackbone,
    World,
    WorldConfig,
    gen_task_data,
)
from tucker_adapters.training import (
    AdamState,
    action_nll,
    adam_step,
    batch_arrays,
    build_plan,
    ewc_loss,
    finite_difference_check,
    fisher_ema,
    fisher_estimate,
    gram_penalty_and_row_grad,
    regularizer_terms,
    task_loss_and_grads,
    total_loss_and_grads,
)

HYPER = ExperimentConfig()


# ---------------------------------------------------------------------------
# Loss-term arithmetic
# ---------------------------------------------------------------------------

def test_ewc_zero_at_snapshot():
    theta = {"core": np.array([1.0, -2.0])}
    fisher = {"core": np.array([3.0, 4.0])}
    assert ewc_loss(theta, {"core": theta["core"].copy()}, fisher, 0.2,
                    ("core",)) == 0.0


def test_ewc_zero_fisher():
    cur = {"core": np.array([5.0])}
    snap = {"core": np.array([1.0])}
    assert ewc_loss(cur, snap, {"core": np.zeros(1)}, 0.2, ("core",)) == 0.0


def test_ewc_scalar_case():
    # F=2, displacement=3, lam1=0.2 -> 0.2 * (2*3)^2 = 7.2
    cur = {"w": np.array([4.0])}
    snap = {"w": np.array([1.0])}
    fisher = {"w": np.array([2.0])}
    assert ewc_loss(cur, snap, fisher, 0.2, ("w",)) == pytest.approx(7.2)


def expert_terms(u3, u4, u3_prev, u4_prev, alpha, beta, lam2=0.0, lam3=0.0):
    """Consistency and orthogonality losses of one tucker4 layer whose current
    task selects scene and env row 0, as the training step computes them;
    alpha and beta flag the scene and the env as seen before."""
    u3, u4 = np.atleast_2d(u3).astype(float), np.atleast_2d(u4).astype(float)
    ad = TuckerAdapter(core=np.ones((1, 1, u3.shape[1], u4.shape[1])),
                       up=np.ones((1, 1)), down=np.ones((1, 1)),
                       scene_experts=u3, env_experts=u4)
    snapshot = {k: v.copy() for k, v in ad.blocks().items()}
    snapshot["scene_experts"][0] = u3_prev
    snapshot["env_experts"][0] = u4_prev
    plan = build_plan([ad], Selection(scene=0, env=0), [snapshot], None,
                      {"scene": alpha, "env": beta},
                      ExperimentConfig(lam1=0.0, lam2=lam2, lam3=lam3))
    return regularizer_terms(plan)[0]


def test_consistency_novel_task_is_zero():
    r = np.array([1.0, 2.0])
    assert expert_terms(r, r, r + 5, r - 3, alpha=0, beta=0,
                        lam2=0.2)["consistency"] == 0.0


def test_consistency_equal_rows_zero():
    r = np.array([0.3, -0.7])
    assert expert_terms(r, r, r.copy(), r.copy(), 1, 1, lam2=0.2)["consistency"] == 0.0


def test_consistency_arithmetic():
    # alpha=1, beta=0, u3 diff (1,1), lam2=0.2 -> 0.4
    u3, u3p = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    u4, u4p = np.array([9.0]), np.array([0.0])
    assert expert_terms(u3, u4, u3p, u4p, 1, 0,
                        lam2=0.2)["consistency"] == pytest.approx(0.4)


def test_orthogonality_orthonormal_rows_zero():
    u3 = np.eye(3)[:2]
    u4 = np.array([[5.0, 0.0]])  # single row normalizes to a 1x1 identity Gram
    assert expert_terms(u3, u4, u3[0], u4[0], 0, 0, lam3=0.1)[
        "orthogonality"] == pytest.approx(0.0, abs=1e-15)


def test_orthogonality_skipped_when_both_seen():
    rng = np.random.default_rng(0)
    u3, u4 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    assert expert_terms(u3, u4, u3[0], u4[0], 1, 1, lam3=0.1)["orthogonality"] == 0.0


def test_orthogonality_identical_unit_rows():
    # Gram of two identical unit rows is all-ones; ||ones - I||^2 = 2 -> 0.2
    u3 = np.array([[1.0, 0.0], [1.0, 0.0]])
    u4 = np.array([[1.0, 0.0]])
    assert expert_terms(u3, u4, u3[0], u4[0], 0, 1, lam3=0.1)[
        "orthogonality"] == pytest.approx(0.2)


def test_orthogonality_excludes_subnorm_rows():
    u = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    # zero row drops out; remaining identical rows give penalty 2
    assert gram_penalty_and_row_grad(u, 0)[0] == pytest.approx(2.0)


@settings(max_examples=60)
@given(rows=st.integers(1, 6), cols=st.integers(1, 5),
       zero_rows=st.sets(st.integers(0, 5)), row=st.integers(0, 5),
       seed=st.integers(0, 2**16))
def test_fused_gram_penalty_equals_separate_passes(rows, cols, zero_rows, row, seed):
    mat = np.random.default_rng(seed).standard_normal((rows, cols))
    mat[[r for r in zero_rows if r < rows]] = 0.0
    row %= rows
    loss, grad = gram_penalty_and_row_grad(mat, row)
    assert loss == reference_gram_penalty(mat)
    assert grad.tobytes() == gram_penalty_row_grad(mat, row).tobytes()


def test_task_loss_uniform_logits():
    # uniform logits over 4 actions -> lam * ln 4 per action
    x = np.zeros((3, 4))
    nll = action_nll(x, np.array([0, 1, 3]))
    assert nll == pytest.approx(math.log(4.0))


def test_task_loss_confident_prediction():
    logits = np.array([[50.0, 0.0, 0.0, 0.0]])
    assert action_nll(logits, np.array([0])) == pytest.approx(0.0, abs=1e-12)


def test_task_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((10, 4))
    y = rng.integers(0, 4, size=10)
    ref = -np.mean(log_softmax(logits, axis=1)[np.arange(10), y])
    assert action_nll(logits, y) == pytest.approx(float(ref), rel=1e-12)


def test_task_loss_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        action_nll(np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_fisher_ema_boundaries_and_arithmetic():
    prev = {"w": np.array([2.0])}
    new = {"w": np.array([4.0])}
    assert fisher_ema(prev, new, 1.0)["w"][0] == 2.0
    assert fisher_ema(prev, new, 0.0)["w"][0] == 4.0
    assert fisher_ema(prev, new, 0.95)["w"][0] == pytest.approx(2.1)
    with pytest.raises(ValueError, match="shape"):
        fisher_ema(prev, {"w": np.zeros(3)}, 0.5)


# ---------------------------------------------------------------------------
# Fisher estimation
# ---------------------------------------------------------------------------

def tiny_world():
    return World(WorldConfig(seed=77, d_f=6, hidden=5, n_scenes=3, n_envs=2,
                             horizon=5))


def test_fisher_zero_when_delta_inert():
    world = tiny_world()
    ad = TuckerAdapter.init(a=5, b=12, ranks=(2, 2, 2, 2), n_scenes=3,
                            n_envs=2, rng=np.random.default_rng(1))
    ad2 = TuckerAdapter.init(a=4, b=5, ranks=(2, 2, 2, 2), n_scenes=3,
                             n_envs=2, rng=np.random.default_rng(2))
    for a in (ad, ad2):
        a.scene_experts[:] = 0.0
        a.env_experts[:] = 0.0
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=0, env=0), 4)
    fisher = fisher_estimate(world.backbone, [ad, ad2],
                             Selection(scene=0, env=0), eps, 1.0)
    for layer in fisher:
        for arr in layer.values():
            assert np.array_equal(arr, np.zeros_like(arr))


def test_fisher_mean_invariant_under_duplication():
    world = tiny_world()
    rng = np.random.default_rng(3)
    ads = [TuckerAdapter.init(5, 12, (2, 2, 2, 2), 3, 2, rng),
           TuckerAdapter.init(4, 5, (2, 2, 2, 2), 3, 2, rng)]
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=1, env=1), 4)
    sel = Selection(scene=1, env=1)
    f1 = fisher_estimate(world.backbone, ads, sel, eps, 1.0)
    f2 = fisher_estimate(world.backbone, ads, sel, eps + eps, 1.0)
    for a, b in zip(f1, f2):
        for name in a:
            np.testing.assert_allclose(a[name], b[name], atol=1e-12)


def test_fisher_nonnegative_and_ema_preserves_it():
    world = tiny_world()
    rng = np.random.default_rng(4)
    ads = [TuckerAdapter.init(5, 12, (2, 2, 2, 2), 3, 2, rng),
           TuckerAdapter.init(4, 5, (2, 2, 2, 2), 3, 2, rng)]
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=2, env=0), 6)
    f = fisher_estimate(world.backbone, ads, Selection(scene=2, env=0), eps, 0.5)
    for layer in f:
        for arr in layer.values():
            assert np.all(arr >= 0.0)
        mixed = fisher_ema(layer, {k: v + 1.0 for k, v in layer.items()}, 0.3)
        assert all(np.all(v >= 0.0) for v in mixed.values())


def test_fisher_single_sample_matches_hand_logistic():
    """One scalar parameter feeding one logit: F = (x0 * (1{y=0} - p0))^2."""
    g = 0.7
    x0, x1, y = 0.8, -0.3, 0
    backbone = ToyBackbone(weights=[np.zeros((4, 2))], biases=[np.zeros(4)])
    ad = TuckerAdapter(
        core=np.full((1, 1, 1, 1), g),
        up=np.array([[1.0], [0.0], [0.0], [0.0]]),
        down=np.array([[1.0], [0.0]]),
        scene_experts=np.array([[1.0]]),
        env_experts=np.array([[1.0]]),
    )
    ep = SyntheticEpisode(obs=np.array([[x0]]), instr=np.array([x1]),
                          actions=np.array([y]), scene=0, env=0)
    fisher = fisher_estimate(backbone, [ad], Selection(scene=0, env=0), [ep], 1.0)
    p0 = math.exp(g * x0) / (math.exp(g * x0) + 3.0)
    expected = (x0 * (1.0 - p0)) ** 2
    assert fisher[0]["core"][0, 0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_fisher_empty_data_error():
    world = tiny_world()
    ad = TuckerAdapter.init(5, 12, (2, 2, 2, 2), 3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="episode"):
        fisher_estimate(world.backbone, [ad], Selection(scene=0, env=0), [], 0.5)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_no_change():
    state = AdamState(lr=1e-3)
    params = {"w": np.array([1.0, 2.0])}
    adam_step(state, params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.0, 2.0])


def test_adam_first_step_magnitude():
    state = AdamState(lr=1e-4)
    params = {"w": np.array([0.0])}
    adam_step(state, params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_constant_gradient_limit():
    state = AdamState(lr=1e-3)
    params = {"w": np.array([0.0])}
    prev = 0.0
    for _ in range(500):
        adam_step(state, params, {"w": np.array([3.0])})
        step, prev = params["w"][0] - prev, params["w"][0]
    assert step == pytest.approx(-1e-3, rel=1e-3)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.zeros(3)})


# ---------------------------------------------------------------------------
# Full objective: values and finite-difference gradient checks
# ---------------------------------------------------------------------------

def build_check_setup(kind="tucker4", seed=0):
    world = tiny_world()
    dims_by_layer = world.backbone.layer_dims
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig(adapter_kind=kind, ranks=(2, 2, 2, 2, 2), lora_rank=2,
                           moe_rank=2, abc_rank_base=2, abc_rank_mid=2,
                           n_scenes=3, n_envs=2, n_instr=2, n_tasks=4)
    adapters = []
    for a, b in dims_by_layer:
        ad = ADAPTER_KINDS[kind].from_config(cfg, a, b, lambda draw: rng)
        # make every block influence the loss so the check is non-vacuous
        for name, arr in ad.blocks().items():
            if name in ad.expert_axes:
                arr += 0.05 * rng.standard_normal(arr.shape)
            elif np.all(arr == 0.0):
                arr += 0.1 * rng.standard_normal(arr.shape)
        adapters.append(ad)
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=1, env=0,
                                              instr=0), 3)
    x, y = batch_arrays(eps)
    sel = Selection(scene=1, env=0, instr=0, task=1)
    snapshots = [{k: v + 0.02 * rng.standard_normal(v.shape)
                  for k, v in ad.blocks().items()} for ad in adapters]
    fishers = [{k: rng.uniform(0.1, 1.5, size=ad.blocks()[k].shape)
                for k in ad.shared_names} for ad in adapters]
    flags = {"scene": 1, "env": 0, "instr": 0, "task": 0}
    return world, adapters, sel, x, y, snapshots, fishers, flags


KINDS = ["tucker4", "tucker3", "tucker5", "lora", "lora_per_task", "moe", "abc"]


def check_plan(kind="tucker4", hyper=HYPER, first_task=False):
    """The flat step plan of ``build_check_setup``; with ``first_task``, as
    the trainer builds it before any snapshot exists."""
    world, adapters, sel, x, y, snaps, fishers, flags = build_check_setup(kind)
    if first_task:
        snaps, flags = None, {}
    plan = build_plan(adapters, sel, snaps, fishers, flags, hyper)
    return world, plan, x, y


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_match_finite_differences(kind):
    world, plan, x, y = check_plan(kind)
    terms, grad = total_loss_and_grads(world.backbone, plan, x, y)

    def loss_fn():
        t, _ = total_loss_and_grads(world.backbone, plan, x, y)
        return t["total"]

    views = plan.layout.views
    errs = finite_difference_check(loss_fn, views(plan.theta), views(grad),
                                   mask=views(plan.mask))
    assert len(errs) == sum(len(ad.blocks()) for ad in plan.adapters)
    for name, err in errs.items():
        assert err < 1e-4, f"{kind} block {name}: rel err {err}"


def test_total_loss_terms_sum_and_first_task_branch():
    world, plan, x, y = check_plan()
    terms, _ = total_loss_and_grads(world.backbone, plan, x, y)
    assert terms["total"] == pytest.approx(
        terms["task"] + terms["ewc"] + terms["consistency"]
        + terms["orthogonality"])
    # first task: no snapshots -> only task + orthogonality contribute
    first, _ = total_loss_and_grads(
        world.backbone, build_plan(plan.adapters, plan.sel, None, None, {}, HYPER),
        x, y)
    assert first["ewc"] == 0.0 and first["consistency"] == 0.0
    assert first["orthogonality"] > 0.0
    assert first["total"] == pytest.approx(first["task"] + first["orthogonality"])


def test_total_loss_pure_task_when_lambdas_zero():
    world, plan, x, y = check_plan(hyper=ExperimentConfig(lam1=0.0, lam2=0.0, lam3=0.0))
    terms, _ = total_loss_and_grads(world.backbone, plan, x, y)
    assert terms["total"] == pytest.approx(terms["task"])
    task_only, _ = task_loss_and_grads(world.backbone, plan.adapters, plan.sel,
                                       x, y, 1.0)
    assert terms["task"] == pytest.approx(task_only)


def test_ewc_gradient_zero_at_snapshot():
    world, adapters, sel, x, y, _, fishers, flags = build_check_setup()
    snaps = [{k: v.copy() for k, v in ad.blocks().items()} for ad in adapters]
    plan = build_plan(adapters, sel, snaps, fishers, flags,
                      ExperimentConfig(lam2=0.0, lam3=0.0))
    losses, grad = regularizer_terms(plan)
    assert losses["ewc"] == 0.0
    views = plan.layout.views(grad)
    for l, ad in enumerate(adapters):
        for name in ad.shared_names:
            g = views[block_key(l, name)]
            assert np.array_equal(g, np.zeros_like(g))


def test_frozen_rows_receive_zero_gradient():
    world, plan, x, y = check_plan()
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)
    views = plan.layout.views(grad)
    for l, ad in enumerate(plan.adapters):
        for name in ad.expert_axes:
            idx = ad.expert_index(name, plan.sel)
            other = np.delete(views[block_key(l, name)], idx, axis=0)
            assert np.array_equal(other, np.zeros_like(other))


def test_masked_params_unchanged_by_adam():
    world, plan, x, y = check_plan()
    ad = plan.adapters[0]
    before = {k: v.copy() for k, v in ad.blocks().items()}
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)
    state = AdamState(lr=1e-2)
    adam_step(state, {"theta": plan.theta}, {"theta": grad})
    for name in ad.expert_axes:
        idx = ad.expert_index(name, plan.sel)
        after = ad.blocks()[name]
        mask = np.ones(after.shape[0], dtype=bool)
        mask[idx] = False
        assert np.array_equal(after[mask], before[name][mask])
        assert not np.array_equal(after[idx], before[name][idx])


def test_rebound_block_is_rejected():
    world, plan, x, y = check_plan()
    plan.adapters[1].up = plan.adapters[1].up.copy()
    with pytest.raises(RuntimeError, match="L1:up"):
        total_loss_and_grads(world.backbone, plan, x, y)


# ---------------------------------------------------------------------------
# The flat step is the per-block step, bit for bit
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS),
       scene=st.integers(0, 2), env=st.integers(0, 1), instr=st.integers(0, 1),
       task=st.integers(0, 3),
       flags=st.fixed_dictionaries({axis: st.integers(0, 1)
                                    for axis in ("scene", "env", "instr", "task")}),
       first_task=st.booleans(),
       hyper=st.sampled_from([ExperimentConfig(), ExperimentConfig(lam1=0.0, lam2=0.0, lam3=0.0),
                              ExperimentConfig(lam1=0.3, lam2=0.0, lam3=0.2)]))
def test_flat_steps_equal_per_block_reference(kind, scene, env, instr, task,
                                              flags, first_task, hyper):
    sel = Selection(scene=scene, env=env, instr=instr, task=task)
    world, ref_adapters, _, x, y, snaps, fishers, _ = build_check_setup(kind)
    _, adapters, *_ = build_check_setup(kind)
    if first_task:   # the trainer's first task: Fisher but no snapshot yet
        snaps, flags = None, {axis: 0 for axis in flags}
    ref_opt = ReferenceAdam(lr=3e-3)
    plan = build_plan(adapters, sel, snaps, fishers, flags, hyper)
    opt = AdamState(lr=3e-3)
    for _ in range(3):
        ref_terms = reference_step(ref_opt, world.backbone, ref_adapters, sel,
                                   x, y, snaps, fishers, flags, hyper)
        terms, grad = total_loss_and_grads(world.backbone, plan, x, y)
        adam_step(opt, {"theta": plan.theta}, {"theta": grad})
        assert terms == ref_terms
        for ref, ad in zip(ref_adapters, adapters):
            for name, arr in ref.blocks().items():
                assert getattr(ad, name).tobytes() == arr.tobytes(), name

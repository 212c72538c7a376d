"""Loss terms, Fisher, Adam, analytic gradients vs finite differences, and
the flat training step vs the per-block reference."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_objective import (
    ReferenceAdam,
    block_gradients,
    flat_state,
    gram_penalty_row_grad,
    reference_step,
)
from reference_objective import fisher_estimate as reference_fisher_estimate
from reference_objective import gram_penalty as reference_gram_penalty
from scipy.special import log_softmax

from tucker_adapters.adapters import (
    ADAPTER_KINDS,
    FlatLayout,
    LoraAdapter,
    Selection,
    TuckerAdapter,
    block_key,
)
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
    adam_step,
    batch_arrays,
    build_plan,
    finite_difference_check,
    fisher_ema,
    fisher_estimate,
    gram_penalty_and_row_grad,
    regularizer_terms,
    softmax_nll,
    task_loss_and_grads,
    total_loss_and_grads,
)

HYPER = ExperimentConfig()


# ---------------------------------------------------------------------------
# Loss-term arithmetic
# ---------------------------------------------------------------------------

def lora_ewc(theta, snapshot, fisher, lam1=0.2):
    """EWC loss of one LoRA layer whose ``down`` and ``up`` are 1x1, as the
    training step computes it; each argument gives (down, up)."""
    def blocks(values):
        return {"down": np.array([[values[0]]], dtype=float),
                "up": np.array([[values[1]]], dtype=float)}

    ad = LoraAdapter(**blocks(theta))
    plan = build_plan([ad], Selection(),
                      *flat_state([ad], [blocks(snapshot)], [blocks(fisher)]),
                      {}, ExperimentConfig(lam1=lam1, lam2=0.0, lam3=0.0))
    return regularizer_terms(plan)[0]["ewc"]


def test_ewc_zero_at_snapshot():
    theta = [1.0, -2.0]
    assert lora_ewc(theta, list(theta), [3.0, 4.0]) == 0.0


def test_ewc_zero_fisher():
    assert lora_ewc([5.0, 3.0], [1.0, 1.0], [0.0, 0.0]) == 0.0


def test_ewc_scalar_case():
    # down: F=2, displacement=3, lam1=0.2 -> 0.2 * (2*3)^2 = 7.2; up sits at
    # its snapshot
    assert lora_ewc([4.0, 1.0], [1.0, 1.0], [2.0, 1.0]) == pytest.approx(7.2)
    # the second block, up, adds 0.2 * (1*1)^2
    assert lora_ewc([4.0, 2.0], [1.0, 1.0], [2.0, 1.0]) == pytest.approx(7.4)


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
    plan = build_plan([ad], Selection(scene=0, env=0),
                      flat_state([ad], [snapshot], None)[0],
                      None, {"scene": alpha, "env": beta},
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
    nll, probs = softmax_nll(x, np.array([0, 1, 3]))
    assert nll == pytest.approx(math.log(4.0))
    assert np.array_equal(probs, np.full((3, 4), 0.25))


def test_task_loss_confident_prediction():
    logits = np.array([[50.0, 0.0, 0.0, 0.0]])
    assert softmax_nll(logits, np.array([0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_task_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((10, 4))
    y = rng.integers(0, 4, size=10)
    ref = -np.mean(log_softmax(logits, axis=1)[np.arange(10), y])
    nll, probs = softmax_nll(logits, y)
    assert nll == pytest.approx(float(ref), rel=1e-12)
    np.testing.assert_allclose(probs, np.exp(log_softmax(logits, axis=1)),
                               rtol=1e-12)


def test_task_loss_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        softmax_nll(np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_fisher_ema_boundaries_and_arithmetic():
    prev, new = np.array([2.0]), np.array([4.0])
    assert fisher_ema(prev, new, 1.0)[0] == 2.0
    assert fisher_ema(prev, new, 0.0)[0] == 4.0
    assert fisher_ema(prev, new, 0.95)[0] == pytest.approx(2.1)
    with pytest.raises(ValueError, match="shape"):
        fisher_ema(prev, np.zeros(3), 0.5)


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
    assert fisher.size == FlatLayout.of([ad, ad2]).n_shared
    assert np.array_equal(fisher, np.zeros_like(fisher))


def test_fisher_mean_invariant_under_duplication():
    world = tiny_world()
    rng = np.random.default_rng(3)
    ads = [TuckerAdapter.init(5, 12, (2, 2, 2, 2), 3, 2, rng),
           TuckerAdapter.init(4, 5, (2, 2, 2, 2), 3, 2, rng)]
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=1, env=1), 4)
    sel = Selection(scene=1, env=1)
    f1 = fisher_estimate(world.backbone, ads, sel, eps, 1.0)
    f2 = fisher_estimate(world.backbone, ads, sel, eps + eps, 1.0)
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_fisher_nonnegative_and_ema_preserves_it():
    world = tiny_world()
    rng = np.random.default_rng(4)
    ads = [TuckerAdapter.init(5, 12, (2, 2, 2, 2), 3, 2, rng),
           TuckerAdapter.init(4, 5, (2, 2, 2, 2), 3, 2, rng)]
    eps = gen_task_data(world, TaskDescriptor(index=0, scene=2, env=0), 6)
    f = fisher_estimate(world.backbone, ads, Selection(scene=2, env=0), eps, 0.5)
    assert np.all(f >= 0.0)
    assert np.all(fisher_ema(f, f + 1.0, 0.3) >= 0.0)


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
    ep = SyntheticEpisode(obs=np.array([[x0]]), actions=np.array([y]),
                          inputs=np.array([[x0, x1]]))
    fisher = fisher_estimate(backbone, [ad], Selection(scene=0, env=0), [ep], 1.0)
    p0 = math.exp(g * x0) / (math.exp(g * x0) + 3.0)
    expected = (x0 * (1.0 - p0)) ** 2
    core = FlatLayout.of([ad]).views(fisher)["L0:core"]
    assert core[0, 0, 0, 0] == pytest.approx(expected, rel=1e-12)


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
    theta = np.array([1.0, 2.0])
    adam_step(state, theta, np.zeros(2))
    assert np.array_equal(theta, [1.0, 2.0])


def test_adam_first_step_magnitude():
    state = AdamState(lr=1e-4)
    theta = np.array([0.0])
    adam_step(state, theta, np.array([1.0]))
    assert theta[0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_constant_gradient_limit():
    state = AdamState(lr=1e-3)
    theta = np.array([0.0])
    prev = 0.0
    for _ in range(500):
        adam_step(state, theta, np.array([3.0]))
        step, prev = theta[0] - prev, theta[0]
    assert step == pytest.approx(-1e-3, rel=1e-3)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step(AdamState(), np.zeros(2), np.zeros(3))


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
    plan = build_plan(adapters, sel, *flat_state(adapters, snaps, fishers),
                      flags, hyper)
    return world, plan, x, y


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_match_finite_differences(kind):
    world, plan, x, y = check_plan(kind)
    terms, grad = total_loss_and_grads(world.backbone, plan, x, y)

    def loss_fn():
        t, _ = total_loss_and_grads(world.backbone, plan, x, y)
        return t["total"]

    errs = finite_difference_check(loss_fn, plan, grad)
    assert len(errs) == sum(len(ad.blocks()) for ad in plan.adapters)
    for name, err in errs.items():
        assert err < 1e-4, f"{kind} block {name}: rel err {err}"


@pytest.mark.parametrize("kind", KINDS)
def test_finite_difference_check_catches_a_planted_error(kind):
    """A gradient 0.1 % off at one trained slot reads >= 1e-4 in its block,
    at the trained slot of smallest |g| above the floor and at a random one;
    the true gradient at the same slot reads below it."""
    world, plan, x, y = check_plan(kind)
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)

    def loss_fn():
        return total_loss_and_grads(world.backbone, plan, x, y)[0]["total"]

    trained = np.concatenate([np.arange(s.start, s.stop) for s in plan.trained])
    checked = trained[np.abs(grad[trained]) >= 1e-8]
    smallest = checked[np.argmin(np.abs(grad[checked]))]
    for i in (smallest, np.random.default_rng(13).choice(checked)):
        key = next(block_key(l, name) for (l, name), s in plan.layout.slots.items()
                   if s.span.start <= i < s.span.stop)
        one_slot = dataclasses.replace(plan, trained=[slice(i, i + 1)])
        assert finite_difference_check(loss_fn, one_slot, grad)[key] < 1e-4
        planted = grad.copy()
        planted[i] *= 1.001
        err = finite_difference_check(loss_fn, one_slot, planted)[key]
        assert err >= 1e-4, f"{kind} slot {i} ({key}, |g| {abs(grad[i]):.1e}): {err}"


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
    task_only = task_loss_and_grads(world.backbone, plan, x, y)
    assert terms["task"] == pytest.approx(task_only)


def test_ewc_gradient_zero_at_snapshot():
    world, adapters, sel, x, y, _, fishers, flags = build_check_setup()
    snaps = [{k: v.copy() for k, v in ad.blocks().items()} for ad in adapters]
    plan = build_plan(adapters, sel, *flat_state(adapters, snaps, fishers),
                      flags, ExperimentConfig(lam2=0.0, lam3=0.0))
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
    adam_step(state, plan.theta, grad)
    for name in ad.expert_axes:
        idx = ad.expert_index(name, plan.sel)
        after = ad.blocks()[name]
        mask = np.ones(after.shape[0], dtype=bool)
        mask[idx] = False
        assert np.array_equal(after[mask], before[name][mask])
        assert not np.array_equal(after[idx], before[name][idx])


# the check setup's capacity: 3 scenes, 2 envs, 2 instruction types, 4 tasks
SELECTIONS = st.builds(Selection, scene=st.integers(0, 2), env=st.integers(0, 1),
                       instr=st.integers(0, 1), task=st.integers(0, 3))
FLAGS = st.fixed_dictionaries({axis: st.integers(0, 1)
                               for axis in ("scene", "env", "instr", "task")})


@settings(max_examples=30)
@given(kind=st.sampled_from(KINDS), sel=SELECTIONS, flags=FLAGS,
       first_task=st.booleans())
def test_trained_record_bounds_every_update(kind, sel, flags, first_task):
    """``plan.trained`` is the shared span then one row per expert block, and
    a step leaves every slot outside it at +0.0 gradient and unchanged."""
    world, adapters, _, x, y, snaps, fishers, _ = build_check_setup(kind)
    if first_task:
        snaps, flags = None, {}
    plan = build_plan(adapters, sel, *flat_state(adapters, snaps, fishers),
                      flags, HYPER)
    layout = plan.layout
    assert plan.trained[0] == slice(0, layout.n_shared)
    inside = np.zeros(layout.size, dtype=int)
    for slots in plan.trained:
        assert 0 <= slots.start <= slots.stop <= layout.size and slots.step is None
        inside[slots] += 1
    assert inside.max(initial=0) <= 1   # disjoint
    rows = [(l, name, row) for l, ad in enumerate(adapters)
            for name, row in zip(ad.expert_axes, ad.trainable_mask(sel))]
    assert len(plan.trained) == 1 + len(rows)
    widths = sum(getattr(adapters[l], name)[0].size for l, name, _ in rows)
    assert int(inside.sum()) == layout.n_shared + widths

    before = plan.theta.copy()
    _, grad = total_loss_and_grads(world.backbone, plan, x, y)
    adam_step(AdamState(lr=1e-2), plan.theta, grad)
    outside = inside == 0
    assert not np.any(grad[outside]) and not np.any(np.signbit(grad[outside]))
    assert plan.theta[outside].tobytes() == before[outside].tobytes()
    for l, name, row in rows:   # each selected row moves
        span = layout.slots[l, name].row(row)
        assert plan.theta[span].tobytes() != before[span].tobytes(), (l, name)


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
    plan = build_plan(adapters, sel, *flat_state(adapters, snaps, fishers),
                      flags, hyper)
    opt = AdamState(lr=3e-3)
    for _ in range(3):
        ref_terms = reference_step(ref_opt, world.backbone, ref_adapters, sel,
                                   x, y, snaps, fishers, flags, hyper)
        terms, grad = total_loss_and_grads(world.backbone, plan, x, y)
        adam_step(opt, plan.theta, grad)
        assert terms == ref_terms
        for ref, ad in zip(ref_adapters, adapters):
            for name, arr in ref.blocks().items():
                assert getattr(ad, name).tobytes() == arr.tobytes(), name


# ---------------------------------------------------------------------------
# The in-place gradient and the flat Fisher equal their per-block forms
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(kind=st.sampled_from(sorted(ADAPTER_KINDS)), layer=st.integers(0, 1),
       scene=st.integers(0, 2), env=st.integers(0, 1), instr=st.integers(0, 1),
       task=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_in_place_delta_backward_equals_dict_form(kind, layer, scene, env, instr,
                                                  task, seed):
    """``delta_backward`` into views of a filled vector writes the shared
    blocks and the selected rows bitwise as into zero-filled blocks, and
    leaves every other row of ``out`` as it was."""
    _, adapters, *_ = build_check_setup(kind)
    ad = adapters[layer]
    sel = Selection(scene=scene, env=env, instr=instr, task=task)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(ad.delta(sel).shape)
    expected = block_gradients(ad, sel, g)

    layout = FlatLayout.of([ad])
    vector = rng.standard_normal(layout.size)
    before = vector.copy()
    views, old = layout.views(vector), layout.views(before)
    out = {name: views[block_key(0, name)] for name in ad.blocks()}
    ops = ad.operands(sel)
    ad.delta(sel, ops)   # the forward pass the step runs first
    ad.delta_backward(ops, g, out)
    for name, grad in expected.items():
        if name not in ad.expert_axes:
            assert out[name].tobytes() == grad.tobytes(), name
            continue
        row = ad.expert_index(name, sel)
        assert out[name][row].tobytes() == grad[row].tobytes(), name
        others = np.arange(grad.shape[0]) != row
        assert out[name][others].tobytes() == old[block_key(0, name)][others].tobytes()
        assert not np.any(grad[others])


@pytest.mark.parametrize("kind", KINDS)
def test_flat_fisher_equals_per_block_reference(kind):
    world, adapters, sel, *_ = build_check_setup(kind)
    episodes = gen_task_data(world, TaskDescriptor(index=0, scene=1, env=0,
                                                   instr=0), 5)
    fisher = fisher_estimate(world.backbone, adapters, sel, episodes, 1.0)
    reference = flat_state(adapters, None, reference_fisher_estimate(
        world.backbone, adapters, sel, episodes))[1]
    assert fisher.tobytes() == reference.tobytes()

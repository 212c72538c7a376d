"""Adapter zoo: deltas vs reconstruction oracles, parameter counts, trained
rows, IO."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tucker_adapters import adapters
from tucker_adapters.adapters import (
    ADAPTER_KINDS,
    SIGMA_EXPERT_INIT,
    TUCKER_EXPERTS,
    AbcLoraAdapter,
    AdapterBase,
    FlatLayout,
    LoraAdapter,
    Selection,
    SharedAMoeAdapter,
    TuckerAdapter,
    audit_task,
    block_key,
)
from tucker_adapters.config import ConfigError, ExperimentConfig
from tucker_adapters.tensor_ops import contract_adapter, tucker_reconstruct


def small_tucker(seed=0, a=6, b=5, ranks=(2, 3, 2, 2), m=4, n=3):
    return TuckerAdapter.init(a=a, b=b, ranks=ranks, n_scenes=m, n_envs=n,
                              rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Parameter count vs the trained-slot enumeration
# ---------------------------------------------------------------------------

def trained_slots(ad, sel):
    """Per block, how many times ``sel`` trains each of its entries: every
    entry of a shared block once, the rows of ``trainable_mask(sel)`` once."""
    counts = {n: np.ones(ad.blocks()[n].shape, dtype=int) for n in ad.shared_names}
    for n, row in zip(ad.expert_axes, ad.trainable_mask(sel)):
        counts[n] = np.zeros(ad.blocks()[n].shape, dtype=int)
        counts[n][row] = 1
    return counts


def test_param_count_matches_mask_enumeration():
    ad = small_tucker()
    shared = sum(ad.blocks()[n].size for n in ad.shared_names)
    expert_union = {n: np.zeros(ad.blocks()[n].shape, dtype=int)
                    for n in ad.expert_axes}
    for s in range(ad.scene_experts.shape[0]):
        for e in range(ad.env_experts.shape[0]):
            counts = trained_slots(ad, Selection(scene=s, env=e))
            for n in ad.expert_axes:
                expert_union[n] += counts[n]
    # every expert row is touched by some task selection, none twice per axis
    touched = sum(int(np.count_nonzero(v)) for v in expert_union.values())
    assert shared + touched == ad.param_count()


# ---------------------------------------------------------------------------
# Deltas vs full-reconstruction oracle
# ---------------------------------------------------------------------------

def test_tucker_delta_matches_reconstruct_slice():
    ad = small_tucker(seed=5)
    rec = tucker_reconstruct(
        ad.core, [ad.up, ad.down, ad.scene_experts, ad.env_experts])
    for s in range(4):
        for e in range(3):
            np.testing.assert_allclose(
                ad.delta(Selection(scene=s, env=e)), rec[:, :, s, e], atol=1e-10)


def test_tucker5_delta_matches_reconstruct_slice():
    ad = TuckerAdapter.init(a=4, b=5, ranks=(2, 2, 2, 2, 2), n_scenes=3,
                            n_envs=2, n_instr=2, rng=np.random.default_rng(9))
    rec = tucker_reconstruct(
        ad.core, [ad.up, ad.down, ad.scene_experts, ad.env_experts,
                  ad.instr_experts])
    np.testing.assert_allclose(
        ad.delta(Selection(scene=1, env=0, instr=1)), rec[:, :, 1, 0, 1],
        atol=1e-10)


def test_tucker3_delta_matches_reconstruct_slice():
    ad = TuckerAdapter.init(a=4, b=5, ranks=(2, 2, 3), n_scenes=2, n_envs=3,
                            rng=np.random.default_rng(13))
    rec = tucker_reconstruct(ad.core, [ad.up, ad.down, ad.pair_experts])
    for s in range(2):
        for e in range(3):
            np.testing.assert_allclose(
                ad.delta(Selection(scene=s, env=e)), rec[:, :, s * 3 + e],
                atol=1e-10)


def test_zeroed_expert_rows_give_zero_delta():
    ad = small_tucker(seed=2)
    ad.scene_experts[1] = 0.0
    assert np.array_equal(ad.delta(Selection(scene=1, env=0)),
                          np.zeros((6, 5)))


def test_delta_is_deterministic():
    ad = small_tucker(seed=3)
    sel = Selection(scene=2, env=1)
    assert np.array_equal(ad.delta(sel), ad.delta(sel))


def test_tucker_delta_bilinear_in_rows():
    ad = small_tucker(seed=4)
    base = ad.delta(Selection(scene=0, env=0))
    ad.scene_experts[0] *= 3.0
    np.testing.assert_allclose(ad.delta(Selection(scene=0, env=0)), 3.0 * base,
                               atol=1e-12)


def test_tucker5_linear_in_instruction_row():
    ad = TuckerAdapter.init(a=3, b=3, ranks=(2, 2, 2, 2, 2), n_scenes=2,
                            n_envs=2, n_instr=2, rng=np.random.default_rng(21))
    base = ad.delta(Selection(scene=0, env=1, instr=0))
    ad.instr_experts[0] *= -2.0
    np.testing.assert_allclose(ad.delta(Selection(scene=0, env=1, instr=0)),
                               -2.0 * base, atol=1e-12)


@pytest.mark.parametrize("ranks", [(2, 3, 4), (2, 3, 4, 2), (2, 3, 4, 2, 3)],
                         ids=["tucker3", "tucker4", "tucker5"])
def test_tucker_delta_runs_contract_adapter_once(monkeypatch, ranks):
    ad = TuckerAdapter.init(a=6, b=5, ranks=ranks, n_scenes=3, n_envs=2,
                            n_instr=2, rng=np.random.default_rng(len(ranks)))
    sel = Selection(scene=2, env=1, instr=1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return contract_adapter(*args, **kwargs)

    monkeypatch.setattr(adapters, "contract_adapter", counted)
    one_off = ad.delta(sel)
    assert len(calls) == 1
    ops = ad.operands(sel)
    step = ad.delta(sel, ops)
    assert len(calls) == 2
    assert step.tobytes() == one_off.tobytes()
    # the step form leaves the contracted core in ops[2] for delta_backward
    _, (_, *rows), mid, _ = ops
    r1, r2 = ranks[:2]
    expanded = tucker_reconstruct(
        ad.core, [np.eye(r1), np.eye(r2), *(row[None, :] for row in rows)])
    np.testing.assert_allclose(mid, expanded.reshape(r1, r2), atol=1e-12)
    assert (ad.up @ mid @ ad.down.T).tobytes() == step.tobytes()


def tucker_blocks(order):
    """Constructor arguments of a valid Tucker adapter with a core of
    ``order`` and ranks (2, 3, 4, 5, 2)[:order]."""
    rng = np.random.default_rng(order)
    ranks = (2, 3, 4, 5, 2)[:order]
    return dict(core=rng.standard_normal(ranks),
                up=rng.standard_normal((6, ranks[0])),
                down=rng.standard_normal((5, ranks[1])),
                n_envs=2 if order == 3 else None,
                **{name: rng.standard_normal((3, r))
                   for name, r in zip(TUCKER_EXPERTS[order], ranks[2:])})


def bad_tucker_blocks():
    """Every argument set ``TuckerAdapter.__init__`` must refuse, each with
    its exact error message."""
    cases = []
    for order in (2, 6):
        args = {**tucker_blocks(4), "core": np.zeros((2,) * order)}
        cases.append(pytest.param(
            args, f"a Tucker core has order 3, 4 or 5, not {order}",
            id=f"order{order}"))
    for order, experts in TUCKER_EXPERTS.items():
        good, names = tucker_blocks(order), list(experts)
        renamed = {**good, "other_experts": good[names[0]]}
        del renamed[names[0]]
        missing = {k: v for k, v in good.items() if k != names[-1]}
        for tag, args in (("renamed", renamed), ("missing", missing)):
            got = sorted(k for k in args if k.endswith("_experts"))
            cases.append(pytest.param(
                args, f"a tucker{order} core takes expert blocks {names}, "
                f"got {got}", id=f"tucker{order}-{tag}"))
        cases.append(pytest.param(
            {**good, "n_envs": None if order == 3 else 2},
            "n_envs couples scene and env in tucker3 cores only",
            id=f"tucker{order}-n_envs"))
        for name in ("up", "down", *names):
            rows, width = good[name].shape
            args = {**good, name: np.zeros((rows, width + 1))}
            widths = tuple(args[n].shape[1] for n in ("up", "down", *names))
            cases.append(pytest.param(
                args, f"factor widths {widths} must match the core ranks "
                f"{good['core'].shape}", id=f"tucker{order}-{name}-width"))
    return cases


@pytest.mark.parametrize("order", sorted(TUCKER_EXPERTS))
def test_tucker_blocks_are_valid(order):
    assert TuckerAdapter(**tucker_blocks(order)).kind == f"tucker{order}"


@pytest.mark.parametrize("args, message", bad_tucker_blocks())
def test_tucker_init_rejects_bad_blocks(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TuckerAdapter(**args)


def test_lora_zero_up_gives_zero_delta():
    lora = LoraAdapter.init(a=4, b=6, rank=2, rng=np.random.default_rng(1))
    assert np.array_equal(lora.delta(Selection()), np.zeros((4, 6)))


def test_moe_single_expert_reduces_to_lora():
    rng = np.random.default_rng(17)
    moe = SharedAMoeAdapter.init(a=4, b=5, rank=3, n_experts=1, rng=rng)
    moe.ups[0] = rng.standard_normal((4, 3))
    lora = LoraAdapter(down=moe.down.copy(), up=moe.ups[0].copy())
    np.testing.assert_allclose(moe.delta(Selection(task=0)),
                               lora.delta(Selection()), atol=1e-12)


def test_moe_delta_is_expert_superposition():
    rng = np.random.default_rng(19)
    moe = SharedAMoeAdapter.init(a=3, b=4, rank=2, n_experts=5, rng=rng)
    moe.ups[:] = rng.standard_normal(moe.ups.shape)
    total = sum(LoraAdapter(down=moe.down, up=moe.ups[k]).delta(Selection())
                for k in range(5))
    np.testing.assert_allclose(moe.delta(Selection(task=0)), total, atol=1e-12)


def test_abc_identity_top_reduces_to_mid_base():
    rng = np.random.default_rng(23)
    abc = AbcLoraAdapter.init(a=3, b=5, rank_base=3, rank_mid=3, n_scenes=2,
                              n_envs=2, rng=rng)
    abc.tops[1] = np.eye(3)
    np.testing.assert_allclose(abc.delta(Selection(scene=0, env=1)),
                               abc.mids[0] @ abc.base, atol=1e-12)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_same_seed_bitwise_identical():
    dims = dict(a=6, b=5, ranks=(2, 2, 2, 2), n_scenes=3, n_envs=2)
    a1 = TuckerAdapter.init(**dims, rng=np.random.default_rng(99))
    a2 = TuckerAdapter.init(**dims, rng=np.random.default_rng(99))
    for k in a1.blocks():
        assert np.array_equal(a1.blocks()[k], a2.blocks()[k])


def test_different_seeds_differ():
    dims = dict(a=6, b=5, ranks=(2, 2, 2, 2), n_scenes=3, n_envs=2)
    a1 = TuckerAdapter.init(**dims, rng=np.random.default_rng(1))
    a2 = TuckerAdapter.init(**dims, rng=np.random.default_rng(2))
    assert not np.array_equal(a1.core, a2.core)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="adapter_kind: 'nope' is not one of"):
        ExperimentConfig(adapter_kind="nope").validate()


def test_initial_delta_is_near_zero():
    ad = small_tucker(seed=11)
    delta = ad.delta(Selection(scene=0, env=0))
    u3, u4 = ad.scene_experts[0], ad.env_experts[0]
    # multilinear operator bound computed from factor norms
    bound = (np.linalg.norm(ad.up) * np.linalg.norm(ad.down)
             * np.linalg.norm(ad.core) * np.linalg.norm(u3) * np.linalg.norm(u4))
    assert np.linalg.norm(delta) <= bound
    # rows are O(sigma), so the update is O(sigma^2) times the shared norms
    shared = (np.linalg.norm(ad.up) * np.linalg.norm(ad.down)
              * np.linalg.norm(ad.core))
    assert np.linalg.norm(delta) <= 100 * SIGMA_EXPERT_INIT ** 2 * shared


# ---------------------------------------------------------------------------
# Trained rows and persistence
# ---------------------------------------------------------------------------

def test_mask_all_ones_when_single_expert():
    ad = TuckerAdapter.init(a=3, b=3, ranks=(2, 2, 2, 2), n_scenes=1, n_envs=1,
                            rng=np.random.default_rng(0))
    assert ad.trainable_mask(Selection(scene=0, env=0)) == (0, 0)
    counts = trained_slots(ad, Selection(scene=0, env=0))
    assert all(np.all(c == 1) for c in counts.values())


def test_mask_frozen_row_count():
    ad = TuckerAdapter.init(a=8, b=8, ranks=(2, 2, 3, 5), n_scenes=7, n_envs=4,
                            rng=np.random.default_rng(0))
    assert ad.trainable_mask(Selection(scene=2, env=1)) == (2, 1)
    counts = trained_slots(ad, Selection(scene=2, env=1))
    zeros = sum(int(np.sum(c == 0)) for c in counts.values())
    assert zeros == 3 * 6 + 5 * 3  # r3 * (M-1) + r4 * (N-1)


def test_mask_index_errors():
    ad = small_tucker()
    with pytest.raises(IndexError):
        ad.trainable_mask(Selection(scene=99, env=0))
    with pytest.raises(IndexError):
        ad.delta(Selection(scene=0, env=-1))


# one bit pattern of a changed slot, before and after
NAN_PAYLOADS = (0x7FF8000000000001, 0x7FF8000000000002)


@settings(max_examples=150)
@given(kind=st.sampled_from(sorted(ADAPTER_KINDS)),
       dims=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                     min_size=1, max_size=2),
       ranks=st.lists(st.integers(1, 3), min_size=5, max_size=5),
       rank=st.integers(1, 3), sel=st.builds(
           Selection, scene=st.integers(0, 2), env=st.integers(0, 1),
           instr=st.integers(0, 1), task=st.integers(0, 3)),
       change=st.sampled_from(["-0.0", "nan payload", "+1.0"]), data=st.data())
def test_audit_names_one_changed_slot(kind, dims, ranks, rank, sel, change, data):
    """Changing one slot outside the slots ``sel`` trains, from +0.0 to -0.0,
    to a NaN of another payload or by +1.0, makes the audit name its row
    once; changing a trained slot is named nowhere, and by +1.0 it is the
    only drift."""
    cfg = ExperimentConfig(adapter_kind=kind, ranks=tuple(ranks), lora_rank=rank,
                           moe_rank=rank, abc_rank_base=rank, abc_rank_mid=rank,
                           n_scenes=3, n_envs=2, n_instr=2, n_tasks=4)
    before = [ADAPTER_KINDS[kind].from_config(
        cfg, a, b, lambda draw, l=l: np.random.default_rng([l, draw]))
        for l, (a, b) in enumerate(dims)]
    after = copy.deepcopy(before)
    layout = FlatLayout.of(before)
    old, new = layout.bind(before), layout.bind(after)
    i = data.draw(st.integers(0, layout.size - 1), label="slot")
    if change == "-0.0":
        old[i], new[i] = 0.0, -0.0
    elif change == "nan payload":
        old.view(np.int64)[i], new.view(np.int64)[i] = NAN_PAYLOADS
    else:
        new[i] += 1.0
    (l, name), slot = next((key, s) for key, s in layout.slots.items()
                           if s.span.start <= i < s.span.stop)
    ad, row = before[l], (i - slot.start) // int(np.prod(slot.shape[1:]))
    key = f"{block_key(l, name)}[{row}]"
    audit = audit_task(before, after, sel)
    if name in ad.expert_axes and row != ad.expert_index(name, sel):
        assert audit["frozen_changed"] == [key]
        return
    assert audit["frozen_changed"] == []
    drift = {k: d for k, (d, _) in {**audit["shared"], **audit["experts"]}.items()}
    moved = block_key(l, name) if name in ad.shared_names else key
    if change == "+1.0":
        assert drift.pop(moved) > 0.0 and not any(drift.values())


@pytest.mark.parametrize("make", [
    lambda rng: TuckerAdapter.init(4, 5, (2, 2, 2, 2), 3, 2, rng),
    lambda rng: TuckerAdapter.init(4, 5, (2, 2, 3), 3, 2, rng),
    lambda rng: TuckerAdapter.init(4, 5, (2, 2, 2, 2, 2), 3, 2, rng, n_instr=2),
    lambda rng: LoraAdapter.init(4, 5, 3, rng),
    lambda rng: SharedAMoeAdapter.init(4, 5, 3, 6, rng),
    lambda rng: AbcLoraAdapter.init(4, 5, 3, 3, 3, 2, rng),
])
def test_checkpoint_roundtrip_lossless(tmp_path, make):
    ad = make(np.random.default_rng(31))
    path = tmp_path / "adapter.npz"
    ad.save(path)
    back = AdapterBase.load(path)
    assert type(back) is type(ad)
    for k, v in ad.blocks().items():
        assert np.array_equal(back.blocks()[k], v)
    sel = Selection(scene=0, env=0, instr=0, task=0)
    np.testing.assert_array_equal(ad.delta(sel), back.delta(sel))


@settings(max_examples=60)
@given(kind=st.sampled_from(sorted(ADAPTER_KINDS)),
       a=st.integers(1, 5), b=st.integers(1, 5),
       ranks=st.lists(st.integers(1, 3), min_size=5, max_size=5),
       rank=st.integers(1, 3), n_scenes=st.integers(1, 4),
       n_envs=st.integers(1, 4), n_instr=st.integers(1, 3),
       n_tasks=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_checkpoint_roundtrip_lossless_any_kind(tmp_path_factory, kind, a, b, ranks,
                                                rank, n_scenes, n_envs, n_instr,
                                                n_tasks, seed):
    cfg = ExperimentConfig(adapter_kind=kind, ranks=tuple(ranks), lora_rank=rank,
                           moe_rank=rank, abc_rank_base=rank, abc_rank_mid=rank,
                           n_scenes=n_scenes, n_envs=n_envs, n_instr=n_instr,
                           n_tasks=n_tasks)
    rng = np.random.default_rng(seed)
    ad = ADAPTER_KINDS[kind].from_config(
        cfg, a, b, lambda draw: np.random.default_rng([seed, draw]))
    for arr in ad.blocks().values():   # zero-initialised blocks too
        arr[...] = rng.standard_normal(arr.shape)
    path = tmp_path_factory.mktemp("ckpt") / "adapter.npz"
    ad.save(path, {"seed": seed})
    back = AdapterBase.load(path)
    assert type(back) is type(ad) and back.kind == ad.kind == kind
    assert list(back.blocks()) == list(ad.blocks())
    for k, v in ad.blocks().items():
        assert back.blocks()[k].shape == v.shape
        assert back.blocks()[k].tobytes() == v.tobytes()
    back.save(path.with_name("again.npz"), {"seed": seed})
    with np.load(path) as first, np.load(path.with_name("again.npz")) as second:
        assert str(first["__meta__"]) == str(second["__meta__"])
    sel = Selection(scene=int(rng.integers(n_scenes)), env=int(rng.integers(n_envs)),
                    instr=int(rng.integers(n_instr)), task=int(rng.integers(n_tasks)))
    assert back.delta(sel).tobytes() == ad.delta(sel).tobytes()


def test_load_rejects_header_shape_mismatch(tmp_path):
    path = tmp_path / "adapter.npz"
    small_tucker().save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["shapes"]["env_experts"] = [7, 2]
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="'env_experts' has shape \\[3, 2\\]"):
        AdapterBase.load(path)

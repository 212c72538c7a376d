"""Tensor-core tests against independent nested-loop oracles."""

import numpy as np
import pytest
from reference_objective import row_normalize

from tucker_adapters.tensor_ops import (
    contract_adapter,
    mode_n_product,
    tucker_reconstruct,
)


# ---------------------------------------------------------------------------
# Oracles: deliberately naive loop implementations, written before the
# library and never sharing code with it.
# ---------------------------------------------------------------------------

def naive_mode_product(t, m, mode):
    t = np.asarray(t, dtype=float)
    m = np.asarray(m, dtype=float)
    out_shape = list(t.shape)
    out_shape[mode] = m.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for j in range(t.shape[mode]):
            src = list(idx)
            src[mode] = j
            acc += m[idx[mode], j] * t[tuple(src)]
        out[idx] = acc
    return out


def naive_tucker_expand(core, factors):
    core = np.asarray(core, dtype=float)
    out_shape = tuple(f.shape[0] for f in factors)
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for jdx in np.ndindex(*core.shape):
            term = core[jdx]
            for mode in range(core.ndim):
                term *= factors[mode][idx[mode], jdx[mode]]
            acc += term
        out[idx] = acc
    return out


def rand_factors(rng, core_shape, out_dims):
    return [rng.standard_normal((o, r)) for o, r in zip(out_dims, core_shape)]


# ---------------------------------------------------------------------------
# mode_n_product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [0, 1])
def test_mode_product_identity_2d(mode):
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mode_n_product(t, np.eye(2), mode), t)


@pytest.mark.parametrize("ndim", [2, 3, 4, 5])
def test_mode_product_identity_all_modes(ndim):
    rng = np.random.default_rng(7 + ndim)
    shape = tuple(rng.integers(2, 4, size=ndim))
    t = rng.standard_normal(shape)
    for mode in range(ndim):
        out = mode_n_product(t, np.eye(shape[mode]), mode)
        np.testing.assert_allclose(out, t, atol=1e-14)


def test_mode_product_vs_loop_oracle():
    rng = np.random.default_rng(42)
    t = rng.standard_normal((2, 3, 4))
    m = rng.standard_normal((5, 3))
    out = mode_n_product(t, m, 1)
    assert out.shape == (2, 5, 4)
    np.testing.assert_allclose(out, naive_mode_product(t, m, 1), atol=1e-12)


def test_mode_product_zero_tensor():
    m = np.random.default_rng(0).standard_normal((3, 2))
    out = mode_n_product(np.zeros((2, 2, 2)), m, 0)
    assert np.array_equal(out, np.zeros((3, 2, 2)))


def test_mode_product_modes_commute():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((6, 2))
    ab = mode_n_product(mode_n_product(t, a, 0), b, 2)
    ba = mode_n_product(mode_n_product(t, b, 2), a, 0)
    np.testing.assert_allclose(ab, ba, atol=1e-12)


def test_mode_product_dimension_error_names_mode():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="mode-1"):
        mode_n_product(t, np.zeros((5, 4)), 1)
    with pytest.raises(ValueError, match="mode 3"):
        mode_n_product(t, np.zeros((3, 2)), 3)


# ---------------------------------------------------------------------------
# tucker_reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_identity_factors():
    rng = np.random.default_rng(11)
    core = rng.standard_normal((2, 3, 2))
    out = tucker_reconstruct(core, [np.eye(2), np.eye(3), np.eye(2)])
    np.testing.assert_allclose(out, core, atol=1e-14)


def test_reconstruct_vs_bruteforce_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        core = rng.standard_normal((2, 2, 2, 2))
        factors = rand_factors(rng, core.shape, (3, 2, 4, 3))
        out = tucker_reconstruct(core, factors)
        np.testing.assert_allclose(out, naive_tucker_expand(core, factors), atol=1e-10)


def test_reconstruct_multilinear_in_core():
    rng = np.random.default_rng(23)
    core = rng.standard_normal((2, 2, 2))
    factors = rand_factors(rng, core.shape, (3, 3, 3))
    base = tucker_reconstruct(core, factors)
    scaled = tucker_reconstruct(2.5 * core, factors)
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


def test_reconstruct_factor_count_error():
    with pytest.raises(ValueError, match="factors"):
        tucker_reconstruct(np.zeros((2, 2, 2)), [np.eye(2), np.eye(2)])


# ---------------------------------------------------------------------------
# contract_adapter
# ---------------------------------------------------------------------------

def test_contract_zero_expert_row():
    rng = np.random.default_rng(31)
    core = rng.standard_normal((2, 3, 4, 5))
    u1 = rng.standard_normal((6, 2))
    u2 = rng.standard_normal((7, 3))
    out = contract_adapter(core, u1, u2, np.zeros(4), rng.standard_normal(5))
    assert np.array_equal(out, np.zeros((6, 7)))


def test_contract_rank_one_outer_product():
    g = 2.5
    v = np.array([[1.0], [2.0], [-1.0]])
    w = np.array([[3.0], [0.5]])
    out = contract_adapter(np.full((1, 1, 1, 1), g), v, w, [1.0], [1.0])
    np.testing.assert_allclose(out, g * v @ w.T, atol=1e-14)


def test_contract_matches_full_reconstruct_slice():
    rng = np.random.default_rng(37)
    for _ in range(5):
        core = rng.standard_normal((2, 3, 2, 4))
        u1 = rng.standard_normal((5, 2))
        u2 = rng.standard_normal((4, 3))
        u3_row = rng.standard_normal(2)
        u4_row = rng.standard_normal(4)
        fused = contract_adapter(core, u1, u2, u3_row, u4_row)
        # Oracle: full mode-product path with 1 x r factors, then squeeze.
        full = tucker_reconstruct(
            core, [u1, u2, u3_row[None, :], u4_row[None, :]]
        )[:, :, 0, 0]
        np.testing.assert_allclose(fused, full, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_contract_any_number_of_expert_rows(k):
    rng = np.random.default_rng(43 + k)
    core = rng.standard_normal((2, 3) + tuple(range(2, 2 + k)))
    u1 = rng.standard_normal((4, 2))
    u2 = rng.standard_normal((5, 3))
    rows = [rng.standard_normal(r) for r in core.shape[2:]]
    full = tucker_reconstruct(core, [u1, u2] + [row[None, :] for row in rows])
    np.testing.assert_allclose(contract_adapter(core, u1, u2, *rows),
                               full.reshape(4, 5), atol=1e-10)


def test_contract_bilinear_in_expert_rows():
    rng = np.random.default_rng(41)
    core = rng.standard_normal((2, 2, 3, 3))
    u1 = rng.standard_normal((4, 2))
    u2 = rng.standard_normal((4, 2))
    u, u_alt = rng.standard_normal(3), rng.standard_normal(3)
    v = rng.standard_normal(3)
    lhs = contract_adapter(core, u1, u2, 2.0 * u + u_alt, v)
    rhs = 2.0 * contract_adapter(core, u1, u2, u, v) + contract_adapter(
        core, u1, u2, u_alt, v
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    lhs = contract_adapter(core, u1, u2, u, -3.0 * v)
    np.testing.assert_allclose(lhs, -3.0 * contract_adapter(core, u1, u2, u, v), atol=1e-12)


# ---------------------------------------------------------------------------
# row_normalize, the reference's (training.py normalizes its Gram rows inline)
# ---------------------------------------------------------------------------

def test_row_normalize_345_triangle():
    np.testing.assert_allclose(row_normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_row_normalize_identity_unchanged():
    np.testing.assert_allclose(row_normalize(np.eye(4)), np.eye(4))


def test_row_normalize_zero_row_guard():
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = row_normalize(m)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert abs(np.linalg.norm(out[1]) - 1.0) < 1e-12


def test_row_normalize_unit_norms():
    rng = np.random.default_rng(53)
    m = rng.standard_normal((10, 6)) * 10.0 ** rng.integers(-3, 4, size=(10, 1))
    norms = np.linalg.norm(row_normalize(m), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-12)

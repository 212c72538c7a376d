"""Dense tensor arithmetic: mode products, Tucker reconstruction, and the
fused adapter contraction used in every forward pass.

Tensors are plain float64 ``numpy.ndarray`` objects in C (row-major) order;
matrices are 2-D arrays. A mode-n product contracts the n-th axis of a
tensor against the columns of a matrix, replacing that axis's size by the
matrix's row count.
"""

from __future__ import annotations

import functools
import string

import numpy as np

# Rows with Euclidean norm below this are excluded from orthogonality Gram
# products, and retrieval rejects features and centroids with such a norm.
EPS_NORM = 1e-12


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def mode_n_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``t``'s axis ``mode`` against the columns of matrix ``m``.

    Result shape equals ``t.shape`` with ``shape[mode]`` replaced by
    ``m.shape[0]``:  ``out[..., i, ...] = sum_j m[i, j] * t[..., j, ...]``.
    """
    t = _as_f64(t)
    m = _as_f64(m)
    if m.ndim != 2:
        raise ValueError(f"mode-{mode} factor must be 2-D, got {m.ndim}-D")
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-D tensor")
    if m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"mode-{mode} size mismatch: factor has {m.shape[1]} columns, "
            f"tensor axis has size {t.shape[mode]}"
        )
    # tensordot puts the new axis first; move it back to `mode`.
    out = np.tensordot(m, t, axes=(1, mode))
    return np.ascontiguousarray(np.moveaxis(out, 0, mode))


def tucker_reconstruct(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Expand a Tucker core by applying one factor matrix per mode in order."""
    core = _as_f64(core)
    if len(factors) != core.ndim:
        raise ValueError(
            f"need {core.ndim} factors for a {core.ndim}-D core, got {len(factors)}"
        )
    out = core
    for mode, factor in enumerate(factors):
        out = mode_n_product(out, factor, mode)
    return out


@functools.lru_cache(maxsize=None)
def tucker_subscripts(k: int) -> tuple[str, str, tuple[str, ...]]:
    """einsum subscripts of an order-(k + 2) adapter core whose up and down
    modes are ``ij`` and whose expert modes are ``k``, ``l``, ``m``, ...

    Returned for k = 2: the contraction of the expert rows
    (``ijkl,k,l->ij``), the core's gradient from the gradient of that
    contraction and the rows (``ij,k,l->ijkl``), and the gradient of each
    row from it, the core and the other rows (``ij,ijkl,l->k``,
    ``ij,ijkl,k->l``).
    """
    modes = string.ascii_lowercase[10:10 + k]
    return (",".join(["ij" + modes, *modes]) + "->ij",
            ",".join(["ij", *modes]) + "->ij" + modes,
            tuple(",".join(["ij", "ij" + modes, *modes.replace(m, "")]) + "->" + m
                  for m in modes))


def contract_adapter(core: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                     *rows: np.ndarray) -> np.ndarray:
    """Fused extraction of one adapter weight from an order-(k + 2) core.

    Computes ``u1 @ (core x_3 rows[0] ... x_{k+2} rows[k-1]) @ u2.T`` where
    each row vector contracts one expert mode away (a 1 x r factor followed
    by a squeeze), yielding an ``a x b`` matrix. This is the inner loop of
    every adapted forward pass; the generic mode-product path above is kept
    as its cross-check oracle.
    """
    core = _as_f64(core)
    u1, u2 = _as_f64(u1), _as_f64(u2)
    rows = [_as_f64(row).ravel() for row in rows]
    if core.ndim != 2 + len(rows):
        raise ValueError(f"a {core.ndim}-D adapter core takes {core.ndim - 2} "
                         f"expert rows, got {len(rows)}")
    r1, r2 = core.shape[:2]
    if u1.shape[1] != r1:
        raise ValueError(f"u1 has {u1.shape[1]} columns, core mode 0 is {r1}")
    if u2.shape[1] != r2:
        raise ValueError(f"u2 has {u2.shape[1]} columns, core mode 1 is {r2}")
    for mode, (row, r) in enumerate(zip(rows, core.shape[2:]), start=2):
        if row.size != r:
            raise ValueError(f"u{mode + 1} row length {row.size}, core mode "
                             f"{mode} is {r}")
    mid = np.einsum(tucker_subscripts(len(rows))[0], core, *rows)
    return u1 @ mid @ u2.T

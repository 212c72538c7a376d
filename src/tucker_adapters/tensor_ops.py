"""Dense tensor arithmetic: mode products, Tucker reconstruction, and
``contract_adapter``, the one kernel of every Tucker delta, trained or not.

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


def contract_adapter(core: np.ndarray, up: np.ndarray, down: np.ndarray,
                     *rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One adapter weight ``up @ mid @ down.T``, where ``mid`` is the (r1, r2)
    matrix left when the k ``rows`` contract the expert modes of an
    order-(k + 2) core away. Every Tucker delta runs it, in a training step
    and in evaluation; the mode-product path above is its oracle. ``out`` is
    the einsum's own output argument: given, it receives ``mid``, which a
    training step keeps for ``delta_backward``. ``TuckerAdapter`` checks the
    widths once, when it is built; nothing is checked here."""
    mid = np.einsum(tucker_subscripts(len(rows))[0], core, *rows, out=out)
    return up @ mid @ down.T

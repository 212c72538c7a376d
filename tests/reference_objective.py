"""The per-block training objective and Adam that the flat step replaced.

Kept only as the reference ``test_training.py`` compares the flat step with:
gradients are per-layer dicts of block arrays, every constant is rebuilt on
each call, the Gram penalty and its row gradient each compute the Gram
error, and Adam keeps one moment array per ``L{l}:{name}`` key.
"""

from __future__ import annotations

import numpy as np

from tucker_adapters.tensor_ops import EPS_NORM, row_normalize
from tucker_adapters.training import ewc_loss, task_loss_and_grads


def gram_penalty(mat):
    """||U_hat U_hat^T - I||_F^2 over rows with norm >= EPS_NORM."""
    mat = np.atleast_2d(mat)
    norms = np.linalg.norm(mat, axis=1)
    kept = mat[norms >= EPS_NORM]
    if kept.shape[0] == 0:
        return 0.0
    unit = row_normalize(kept)
    gram = unit @ unit.T
    err = gram - np.eye(kept.shape[0])
    return float(np.sum(err * err))


def gram_penalty_row_grad(mat, row):
    """Gradient of gram_penalty w.r.t. one (unnormalized) row of ``mat``,
    recomputing the norms and Gram error gram_penalty computed."""
    mat = np.atleast_2d(mat)
    norms = np.linalg.norm(mat, axis=1)
    keep = norms >= EPS_NORM
    if not keep[row]:
        return np.zeros(mat.shape[1])
    kept = mat[keep]
    unit = row_normalize(kept)
    err = unit @ unit.T - np.eye(kept.shape[0])
    j = int(np.sum(keep[:row]))  # position of `row` among kept rows
    g_unit = 4.0 * (err @ unit)[j]
    v_hat = unit[j]
    return (g_unit - (g_unit @ v_hat) * v_hat) / norms[row]


def reference_regularizer_terms(adapter, sel, snapshot, fisher, flags, cfg):
    """Losses and per-block gradients of the consolidation terms of one layer."""
    sel = adapter.resolve(sel)
    blocks = adapter.blocks()
    losses = {"ewc": 0.0, "consistency": 0.0, "orthogonality": 0.0}
    grads = {name: np.zeros_like(arr) for name, arr in blocks.items()}

    if snapshot is not None and fisher is not None and cfg.lam1 != 0.0:
        losses["ewc"] = ewc_loss(blocks, snapshot, fisher, cfg.lam1,
                                 adapter.shared_names)
        for name in adapter.shared_names:
            fw = fisher[name]
            grads[name] += (2.0 * cfg.lam1 * fw * fw
                            * (blocks[name] - snapshot[name]))

    if snapshot is not None and cfg.lam2 != 0.0:
        for name, axis in adapter.expert_axes.items():
            if not flags.get(axis, 0):
                continue
            idx = adapter.expert_index(name, sel)
            diff = blocks[name][idx] - snapshot[name][idx]
            losses["consistency"] += cfg.lam2 * float(np.sum(diff * diff))
            grads[name][idx] += 2.0 * cfg.lam2 * diff

    if cfg.lam3 != 0.0:
        for name in adapter.ortho_names:
            axis = adapter.expert_axes[name]
            coeff = cfg.lam3 * (1 - flags.get(axis, 0))
            if coeff == 0.0:
                continue
            mat = blocks[name].reshape(blocks[name].shape[0], -1)
            losses["orthogonality"] += coeff * gram_penalty(mat)
            idx = adapter.expert_index(name, sel)
            row_grad = coeff * gram_penalty_row_grad(mat, idx)
            grads[name].reshape(mat.shape)[idx] += row_grad

    return losses, grads


def reference_total_loss_and_grads(backbone, adapters, sel, x, y,
                                   snapshots, fishers, flags, cfg):
    """Terms dict and per-layer masked gradient dicts for one minibatch."""
    task, net_grads = task_loss_and_grads(backbone, adapters, sel, x, y,
                                          cfg.lam_task)
    terms = {"task": task, "ewc": 0.0, "consistency": 0.0, "orthogonality": 0.0}
    all_grads = []
    for l, ad in enumerate(adapters):
        snap = None if snapshots is None else snapshots[l]
        fish = None if fishers is None else fishers[l]
        reg_losses, reg_grads = reference_regularizer_terms(
            ad, sel, snap, fish, flags, cfg)
        for k in ("ewc", "consistency", "orthogonality"):
            terms[k] += reg_losses[k]
        mask = ad.trainable_mask(sel)
        merged = {}
        for name in reg_grads:
            merged[name] = (net_grads[l].get(name, 0.0) + reg_grads[name]) * mask[name]
        all_grads.append(merged)
    terms["total"] = sum(terms.values())
    return terms, all_grads


class ReferenceAdam:
    """Adam with bias correction and one moment array per parameter key."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step, self.m, self.v = 0, {}, {}

    def update(self, params, grads):
        self.step += 1
        t = self.step
        for key, g in grads.items():
            p = params[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            m_hat = self.m[key] / (1 - self.beta1 ** t)
            v_hat = self.v[key] / (1 - self.beta2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_step(opt, backbone, adapters, sel, x, y, snapshots, fishers,
                   flags, cfg):
    """One optimizer step the way the trainer took it before the flat vector."""
    terms, grads = reference_total_loss_and_grads(
        backbone, adapters, sel, x, y, snapshots, fishers, flags, cfg)
    params = {f"L{l}:{name}": arr for l, ad in enumerate(adapters)
              for name, arr in ad.blocks().items()}
    opt.update(params, {f"L{l}:{name}": g for l, layer in enumerate(grads)
                        for name, g in layer.items()})
    return terms

"""The per-block training objective and Adam that the flat step replaced.

Kept only as the reference ``test_training.py`` compares the flat step with:
gradients are per-layer dicts of new block arrays that ``delta_backward``
fills, every constant is rebuilt on each call, softmax and NLL each take
their own ``exp``, EWC walks the blocks of each layer, the Gram penalty and
its row gradient each compute the Gram error, and Adam keeps one moment
array per ``L{l}:{name}`` key.
"""

from __future__ import annotations

import numpy as np

from tucker_adapters.adapters import FlatLayout, block_key
from tucker_adapters.tensor_ops import EPS_NORM


def flat_state(adapters, snapshots, fishers):
    """Per-layer snapshot and Fisher dicts as the vectors ``build_plan``
    takes, in the layout of ``adapters``; None stays None."""
    layout = FlatLayout.of(adapters)

    def filled(size, layers):
        vector = np.empty(size)
        views = layout.views(vector)
        for l, layer in enumerate(layers):
            for name, arr in layer.items():
                views[block_key(l, name)][...] = arr
        return vector

    return (None if snapshots is None else filled(layout.size, snapshots),
            None if fishers is None else filled(layout.n_shared, fishers))


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def action_nll(logits, targets):
    """Mean negative log-likelihood of the target actions."""
    logits = np.atleast_2d(logits)
    if len(targets) == 0:
        raise ValueError("empty batch")
    z = logits - np.max(logits, axis=1, keepdims=True)
    log_p = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    return float(-np.mean(log_p[np.arange(len(targets)), targets]))


def ewc_loss(current, snapshot, fisher, lam1, names):
    total = 0.0
    for name in names:
        weighted = fisher[name] * (current[name] - snapshot[name])
        total += float(np.sum(weighted * weighted))
    return lam1 * total


def block_gradients(adapter, sel, g):
    """Gradients of ``sum(g * adapter.delta(sel))`` as new block arrays that
    are zero outside the shared blocks and the selected expert rows."""
    ops = adapter.operands(sel)
    adapter.delta(sel, ops)   # leaves in ``ops`` what delta_backward reads
    out = {name: np.zeros_like(arr) for name, arr in adapter.blocks().items()}
    adapter.delta_backward(ops, g, out)
    return out


def network_pass(backbone, adapters, sel, x, y, scale, mean_reduce):
    """NLL (optionally mean-reduced) and per-layer dicts of the gradients
    of ``scale * nll``."""
    n_layers = len(backbone.weights)
    deltas = [ad.delta(sel) for ad in adapters]
    acts = [np.atleast_2d(x)]
    for l in range(n_layers):
        z = acts[-1] @ (backbone.weights[l] + deltas[l]).T + backbone.biases[l]
        acts.append(np.tanh(z) if l < n_layers - 1 else z)
    logits = acts[-1]
    n = len(y)
    probs = softmax(logits)
    nll = action_nll(logits, y)
    if not mean_reduce:
        nll *= n
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g *= scale / n if mean_reduce else scale
    grads = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        grads[l] = block_gradients(adapters[l], sel, g.T @ acts[l])
        if l > 0:
            g = (g @ (backbone.weights[l] + deltas[l])) * (1.0 - acts[l] ** 2)
    return nll, grads


def task_loss_and_grads(backbone, adapters, sel, x, y, lam_task):
    nll, grads = network_pass(backbone, adapters, sel, x, y,
                              scale=lam_task, mean_reduce=True)
    return lam_task * nll, grads


def fisher_estimate(backbone, adapters, sel, episodes):
    """Per-layer dicts of the mean squared per-episode log-likelihood
    gradient of the shared blocks, over every episode."""
    fisher = [{name: np.zeros_like(getattr(ad, name)) for name in ad.shared_names}
              for ad in adapters]
    for ep in episodes:
        _, grads = network_pass(backbone, adapters, sel, ep.inputs, ep.actions,
                                scale=-1.0, mean_reduce=False)
        for layer, acc in zip(grads, fisher):
            for name in acc:
                acc[name] += layer[name] ** 2
    for acc in fisher:
        for name in acc:
            acc[name] /= len(episodes)
    return fisher


def row_normalize(m, eps=EPS_NORM):
    """Scale each row to unit Euclidean norm; rows with norm < eps pass through."""
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"row_normalize expects a matrix, got {m.ndim}-D")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms < eps, 1.0, norms)
    return np.where(norms < eps, m, m / safe)


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
        # 1.0 on shared blocks and the trained rows, 0.0 elsewhere; the
        # products below keep the signed zeros of the per-block step
        mask = {name: np.ones_like(arr) for name, arr in ad.blocks().items()}
        for name, row in zip(ad.expert_axes, ad.trainable_mask(sel)):
            mask[name] = np.zeros_like(mask[name])
            mask[name][row] = 1.0
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

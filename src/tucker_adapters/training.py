"""Loss terms, manual gradients, Fisher estimation, and the Adam optimizer.

The total training loss for one task is

    total = task + ewc + consistency + orthogonality

with
    task           = lambda * mean over action steps of -log p(action)
                     (lambda = 1 - lam1 - lam2 - lam3)
    ewc            = lam1 * sum over shared blocks of ||F (.) (theta - theta')||_F^2
                     (the Fisher weighting sits inside the squared norm)
    consistency    = lam2 * sum over revisited expert slices of ||e - e'||^2
    orthogonality  = lam3 * sum over novel expert hierarchies of
                     ||row_normalize(U) row_normalize(U)^T - I||_F^2
                     (rows under the norm guard are excluded from the Gram)

All gradients are analytic and exact; the finite-difference checker below is
the reference every configuration is validated against. Gradients of frozen
expert slices are structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterBase, FlatLayout, Selection
from .config import ExperimentConfig
from .tasks import SyntheticEpisode, ToyBackbone
from .tensor_ops import EPS_NORM, row_normalize


# ---------------------------------------------------------------------------
# Individual loss terms
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def action_nll(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of the target actions."""
    logits = np.atleast_2d(logits)
    if len(targets) == 0:
        raise ValueError("empty batch")
    z = logits - np.max(logits, axis=1, keepdims=True)
    log_p = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    return float(-np.mean(log_p[np.arange(len(targets)), targets]))


def ewc_loss(current: dict[str, np.ndarray], snapshot: dict[str, np.ndarray],
             fisher: dict[str, np.ndarray], lam1: float,
             names: tuple[str, ...]) -> float:
    total = 0.0
    for name in names:
        weighted = fisher[name] * (current[name] - snapshot[name])
        total += float(np.sum(weighted * weighted))
    return lam1 * total


def _gram_error(mat: np.ndarray):
    """Row norms, the mask of rows with norm >= EPS_NORM, those rows scaled
    to unit norm, and their Gram matrix minus the identity."""
    mat = np.atleast_2d(mat)
    norms = np.linalg.norm(mat, axis=1)
    keep = norms >= EPS_NORM
    unit = row_normalize(mat[keep])
    return norms, keep, unit, unit @ unit.T - np.eye(unit.shape[0])


def gram_penalty_and_row_grad(mat: np.ndarray, row: int) -> tuple[float, np.ndarray]:
    """The Gram penalty ||U_hat U_hat^T - I||_F^2 over the rows of ``mat``
    with norm >= EPS_NORM, and its gradient w.r.t. one (unnormalized) row,
    both from one Gram error."""
    norms, keep, unit, err = _gram_error(mat)
    loss = float(np.sum(err * err))
    if not keep[row]:
        return loss, np.zeros(unit.shape[1])
    j = int(np.sum(keep[:row]))  # position of `row` among kept rows
    g_unit = 4.0 * (err @ unit)[j]
    v_hat = unit[j]
    return loss, (g_unit - (g_unit @ v_hat) * v_hat) / norms[row]


def fisher_ema(prev: dict[str, np.ndarray], new: dict[str, np.ndarray],
               omega: float) -> dict[str, np.ndarray]:
    """F = omega * prev + (1 - omega) * new, elementwise per block."""
    out = {}
    for name, p in prev.items():
        n = new[name]
        if p.shape != n.shape:
            raise ValueError(f"fisher block {name!r} shape mismatch: "
                             f"{p.shape} vs {n.shape}")
        out[name] = omega * p + (1.0 - omega) * n
    return out


# ---------------------------------------------------------------------------
# Network pass: lambda-scaled action loss and gradients through the deltas
# ---------------------------------------------------------------------------

def batch_arrays(episodes: list[SyntheticEpisode]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten episodes into per-step (inputs, target-action) arrays."""
    xs = [ep.model_inputs() for ep in episodes]
    ys = [ep.actions for ep in episodes]
    return np.vstack(xs), np.concatenate(ys)


def _network_pass(backbone: ToyBackbone, adapters: list[AdapterBase],
                  sel: Selection, x: np.ndarray, y: np.ndarray,
                  scale: float, mean_reduce: bool):
    """NLL (optionally mean-reduced) and gradients of ``scale * nll``.

    Returns (nll, per-layer dict of block gradients). The backbone itself is
    frozen; only adapter blocks receive gradients.
    """
    n_layers = len(backbone.weights)
    deltas = [ad.delta(sel) for ad in adapters]
    acts = [np.atleast_2d(x)]
    for l in range(n_layers):
        z = acts[-1] @ (backbone.weights[l] + deltas[l]).T + backbone.biases[l]
        acts.append(np.tanh(z) if l < n_layers - 1 else z)
    logits = acts[-1]
    n = len(y)
    if n == 0:
        raise ValueError("empty batch")
    probs = softmax(logits)
    nll = action_nll(logits, y)
    if not mean_reduce:
        nll *= n

    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g *= scale / n if mean_reduce else scale
    grads: list[dict[str, np.ndarray]] = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        d_w = g.T @ acts[l]
        grads[l] = adapters[l].delta_backward(sel, d_w)
        if l > 0:
            g = (g @ (backbone.weights[l] + deltas[l])) * (1.0 - acts[l] ** 2)
    return nll, grads


def task_loss_and_grads(backbone, adapters, sel, x, y, lam_task):
    """lambda-scaled mean action NLL and its adapter gradients."""
    nll, grads = _network_pass(backbone, adapters, sel, x, y,
                               scale=lam_task, mean_reduce=True)
    return lam_task * nll, grads


def fisher_estimate(backbone, adapters, sel: Selection,
                    episodes: list[SyntheticEpisode],
                    fraction: float) -> list[dict[str, np.ndarray]]:
    """Mean squared per-episode log-likelihood gradient for shared blocks.

    Uses the leading ``fraction`` of the episode list (at least one episode);
    the gradient is of the summed log-likelihood of each episode's action
    sequence, so doubling the dataset leaves the estimate unchanged.
    """
    if not episodes:
        raise ValueError("fisher_estimate needs at least one episode")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    subset = episodes[:max(1, int(round(fraction * len(episodes))))]
    fisher = [{name: np.zeros_like(getattr(ad, name)) for name in ad.shared_names}
              for ad in adapters]
    for ep in subset:
        x, y = ep.model_inputs(), ep.actions
        # d(log p)/d theta = -d(summed NLL)/d theta
        _, grads = _network_pass(backbone, adapters, sel, x, y,
                                 scale=-1.0, mean_reduce=False)
        for layer, acc in zip(grads, fisher):
            for name in acc:
                acc[name] += layer[name] ** 2
    for acc in fisher:
        for name in acc:
            acc[name] /= len(subset)
    return fisher


# ---------------------------------------------------------------------------
# The per-task step plan over one flat parameter vector
# ---------------------------------------------------------------------------

@dataclass
class LayerTerms:
    """Where one layer's consolidation terms act in the flat vector."""

    # (live shared blocks, their snapshot, their Fisher weights) for ewc_loss
    ewc: tuple[dict, dict, dict] | None = None
    consistency: list[slice] = field(default_factory=list)  # revisited rows
    # (coefficient, live (rows, k) view of the block, current row, row slots)
    orthogonality: list[tuple[float, np.ndarray, int, slice]] = field(
        default_factory=list)


@dataclass
class StepPlan:
    """Everything about the training step that stays fixed for one task.

    ``theta`` holds every block of ``adapters`` (the blocks are views of it),
    and the step's gradient is one vector in the same layout. ``mask`` is
    1.0 on the slots the task trains. ``snapshot`` is the previous task's
    parameters, and ``ewc_weight`` = ``(2 lam1 F) F`` covers the leading
    ``layout.n_shared`` (shared) slots.
    """

    adapters: list[AdapterBase]
    layout: FlatLayout
    theta: np.ndarray
    sel: Selection
    cfg: ExperimentConfig
    mask: np.ndarray
    snapshot: np.ndarray | None
    ewc_weight: np.ndarray | None
    layer_terms: list[LayerTerms]


def build_plan(adapters: list[AdapterBase], sel: Selection,
               snapshots: list[dict[str, np.ndarray]] | None,
               fishers: list[dict[str, np.ndarray]] | None,
               flags: dict[str, int], cfg: ExperimentConfig) -> StepPlan:
    """Bind ``adapters`` to one flat vector and fix the task's constants.

    ``flags`` maps expert axis name ('scene', 'env', ...) to 1 when that
    expert was learned by a previous task. Afterwards every block of
    ``adapters`` is a view of ``plan.theta``.
    """
    layout = FlatLayout.of(adapters)
    theta = layout.bind(adapters)
    mask = layout.flatten([ad.trainable_mask(sel) for ad in adapters])
    snapshot = None if snapshots is None else layout.flatten(snapshots)
    ewc = snapshots is not None and fishers is not None and cfg.lam1 != 0.0
    ewc_weight = None
    if ewc:
        fisher = layout.flatten(fishers, shared_only=True)
        ewc_weight = 2.0 * cfg.lam1 * fisher * fisher
    layer_terms = []
    for l, ad in enumerate(adapters):
        terms = LayerTerms()
        if ewc:
            terms.ewc = ({name: getattr(ad, name) for name in ad.shared_names},
                         snapshots[l], fishers[l])
        if snapshot is not None and cfg.lam2 != 0.0:
            for name, axis in ad.expert_axes.items():
                if flags.get(axis, 0):
                    row = ad.expert_index(name, sel)
                    terms.consistency.append(layout.slots[l, name].row(row))
        if cfg.lam3 != 0.0:
            for name in ad.ortho_names:
                coeff = cfg.lam3 * (1 - flags.get(ad.expert_axes[name], 0))
                if coeff == 0.0:
                    continue
                block = getattr(ad, name)
                row = ad.expert_index(name, sel)
                terms.orthogonality.append(
                    (coeff, block.reshape(block.shape[0], -1), row,
                     layout.slots[l, name].row(row)))
        layer_terms.append(terms)
    return StepPlan(adapters, layout, theta, sel, cfg, mask, snapshot,
                    ewc_weight, layer_terms)


# ---------------------------------------------------------------------------
# Regularizer terms (EWC + consistency + orthogonality) and the full objective
# ---------------------------------------------------------------------------

def regularizer_terms(plan: StepPlan) -> tuple[dict[str, float], np.ndarray]:
    """Losses of the three consolidation terms and their gradient over the
    flat vector; the gradient touches only slots the task trains.

    Each slot accumulates its terms in the order EWC, consistency,
    orthogonality, and each loss per layer, so that the arithmetic is that of
    the per-block objective.
    """
    theta, lam1, lam2 = plan.theta, plan.cfg.lam1, plan.cfg.lam2
    grad = np.zeros_like(theta)
    totals = {"ewc": 0.0, "consistency": 0.0, "orthogonality": 0.0}
    if plan.ewc_weight is not None:
        n = plan.layout.n_shared
        grad[:n] += plan.ewc_weight * (theta[:n] - plan.snapshot[:n])
    for terms in plan.layer_terms:
        losses = {"ewc": 0.0, "consistency": 0.0, "orthogonality": 0.0}
        if terms.ewc is not None:
            current, snapshot, fisher = terms.ewc
            losses["ewc"] = ewc_loss(current, snapshot, fisher, lam1,
                                     tuple(current))
        for slots in terms.consistency:
            diff = theta[slots] - plan.snapshot[slots]
            losses["consistency"] += lam2 * float(np.sum(diff * diff))
            grad[slots] += 2.0 * lam2 * diff
        for coeff, mat, row, slots in terms.orthogonality:
            loss, row_grad = gram_penalty_and_row_grad(mat, row)
            losses["orthogonality"] += coeff * loss
            grad[slots] += coeff * row_grad
        for k in totals:
            totals[k] += losses[k]
    return totals, grad


def total_loss_and_grads(backbone, plan: StepPlan, x, y):
    """Full training objective for one minibatch across all layers.

    Returns (terms dict, masked gradient over ``plan.theta``).
    """
    plan.layout.check_bound(plan.adapters, plan.theta)
    task, net_grads = task_loss_and_grads(backbone, plan.adapters, plan.sel,
                                          x, y, plan.cfg.lam_task)
    reg_losses, reg_grad = regularizer_terms(plan)
    terms = {"task": task, **reg_losses}
    terms["total"] = sum(terms.values())
    return terms, (plan.layout.flatten(net_grads) + reg_grad) * plan.mask


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected first/second moment accumulators, keyed like the params."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> None:
    """One in-place Adam update across all parameter arrays."""
    state.step += 1
    t = state.step
    for key, g in grads.items():
        p = params[key]
        if p.shape != g.shape:
            raise ValueError(f"param/grad shape mismatch for {key!r}: "
                             f"{p.shape} vs {g.shape}")
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
        state.m[key] = state.beta1 * state.m[key] + (1 - state.beta1) * g
        state.v[key] = state.beta2 * state.v[key] + (1 - state.beta2) * g * g
        m_hat = state.m[key] / (1 - state.beta1 ** t)
        v_hat = state.v[key] / (1 - state.beta2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# Finite-difference gradient checker
# ---------------------------------------------------------------------------

def finite_difference_check(loss_fn, arrays: dict[str, np.ndarray],
                            analytic: dict[str, np.ndarray],
                            mask: dict[str, np.ndarray] | None = None,
                            h: float = 1e-5, floor: float = 1e-8) -> dict[str, float]:
    """Max relative error per block between analytic and central differences.

    Entries where both gradients are below ``floor`` are skipped, as are
    entries outside the trainable ``mask``. ``loss_fn`` must read the live
    arrays so in-place perturbations take effect.
    """
    errors = {}
    for name, arr in arrays.items():
        worst = 0.0
        flat = arr.reshape(-1)
        ana = analytic[name].reshape(-1)
        m = None if mask is None else mask[name].reshape(-1)
        for i in range(flat.size):
            if m is not None and m[i] == 0.0:
                continue
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            num = (up - down) / (2.0 * h)
            if abs(num) < floor and abs(ana[i]) < floor:
                continue
            worst = max(worst, abs(num - ana[i]) / max(abs(num), abs(ana[i])))
        errors[name] = worst
    return errors

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
                     ||U_hat U_hat^T - I||_F^2, U_hat = U with unit rows
                     (rows under the norm guard are excluded from the Gram)

All gradients are analytic and exact; the finite-difference checker below is
the reference every configuration is validated against. Gradients of frozen
expert slices are structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterBase, FlatLayout, Selection, block_key
from .config import ExperimentConfig
from .tasks import SyntheticEpisode, ToyBackbone
from .tensor_ops import EPS_NORM


# ---------------------------------------------------------------------------
# Individual loss terms
# ---------------------------------------------------------------------------

def softmax_nll(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of the target actions and the softmax
    probabilities of ``logits``, both from one ``exp``."""
    if len(targets) == 0:
        raise ValueError("empty batch")
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    log_p = z[np.arange(len(targets)), targets] - np.log(total[:, 0])
    return float(-(np.add.reduce(log_p) / len(log_p))), e / total


def gram_penalty_and_row_grad(mat: np.ndarray, row: int) -> tuple[float, np.ndarray]:
    """The Gram penalty ||U_hat U_hat^T - I||_F^2 over the rows of ``mat``
    with norm >= EPS_NORM, and its gradient w.r.t. one (unnormalized) row,
    both from one Gram error."""
    norms = np.sqrt(np.add.reduce(mat * mat, axis=1))
    keep = norms >= EPS_NORM
    unit = mat[keep] / norms[keep, None]   # the kept rows, row-normalized
    err = unit @ unit.T - np.eye(unit.shape[0])
    loss = float(np.add.reduce(err * err, axis=None))
    if not keep[row]:
        return loss, np.zeros(unit.shape[1])
    j = np.count_nonzero(keep[:row])  # position of `row` among kept rows
    g_unit = 4.0 * (err @ unit)[j]
    v_hat = unit[j]
    return loss, (g_unit - (g_unit @ v_hat) * v_hat) / norms[row]


def fisher_ema(prev: np.ndarray, new: np.ndarray, omega: float) -> np.ndarray:
    """F = omega * prev + (1 - omega) * new, elementwise."""
    if prev.shape != new.shape:
        raise ValueError(f"fisher shape mismatch: {prev.shape} vs {new.shape}")
    return omega * prev + (1.0 - omega) * new


# ---------------------------------------------------------------------------
# Network pass: lambda-scaled action loss and gradients through the deltas
# ---------------------------------------------------------------------------

def batch_arrays(episodes: list[SyntheticEpisode]) -> tuple[np.ndarray, np.ndarray]:
    """Stack episodes into per-step (inputs, target-action) arrays."""
    return (np.vstack([ep.inputs for ep in episodes]),
            np.concatenate([ep.actions for ep in episodes]))


Kernel = list[tuple[AdapterBase, tuple, dict[str, np.ndarray]]]


def layer_kernels(adapters: list[AdapterBase], sel: Selection,
                  layout: FlatLayout, grad: np.ndarray) -> Kernel:
    """Per layer: the adapter, its ``operands(sel)`` and the views of
    ``grad`` its ``delta_backward`` writes into."""
    views = layout.views(grad)
    return [(ad, ad.operands(sel),
             {name: views[block_key(l, name)] for name in ad.blocks()})
            for l, ad in enumerate(adapters)]


def _network_pass(backbone: ToyBackbone, kernel: Kernel, sel: Selection,
                  x: np.ndarray, y: np.ndarray, scale: float) -> float:
    """Mean NLL of the actions ``y``. The gradient of ``scale`` times it
    overwrites the shared blocks and selected expert rows in the gradient
    views of ``kernel``; the backbone is frozen."""
    acts, weights = [x], []
    last = len(kernel) - 1
    for l, (ad, ops, _) in enumerate(kernel):
        weights.append(backbone.weights[l] + ad.delta(sel, ops))
        z = acts[-1] @ weights[l].T + backbone.biases[l]
        acts.append(np.tanh(z) if l < last else z)
    n = len(y)
    nll, g = softmax_nll(acts[-1], y)
    g[np.arange(n), y] -= 1.0
    g *= scale / n
    for l in range(last, -1, -1):
        ad, ops, out = kernel[l]
        ad.delta_backward(ops, g.T @ acts[l], out)
        if l > 0:
            g = (g @ weights[l]) * (1.0 - acts[l] ** 2)
    return nll


def task_loss_and_grads(backbone, plan: "StepPlan", x, y) -> float:
    """lambda-scaled mean action NLL, lambda = ``plan.cfg.lam_task``; its
    gradient goes to ``plan.grad``."""
    lam_task = plan.cfg.lam_task
    return lam_task * _network_pass(backbone, plan.kernel, plan.sel, x, y,
                                    scale=lam_task)


def fisher_estimate(backbone, adapters, sel: Selection,
                    episodes: list[SyntheticEpisode],
                    fraction: float) -> np.ndarray:
    """Mean squared per-episode log-likelihood gradient over the shared
    slots of ``FlatLayout.of(adapters)``.

    Uses the leading ``fraction`` of the episode list (at least one episode);
    the gradient is of the summed log-likelihood of each episode's action
    sequence, so doubling the dataset leaves the estimate unchanged.
    """
    if not episodes:
        raise ValueError("fisher_estimate needs at least one episode")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    subset = episodes[:max(1, int(round(fraction * len(episodes))))]
    layout = FlatLayout.of(adapters)
    grad = np.zeros(layout.size)
    kernel = layer_kernels(adapters, sel, layout, grad)
    fisher = np.zeros(layout.n_shared)
    for ep in subset:
        # d(log p)/d theta = -d(summed NLL)/d theta = -n d(mean NLL)/d theta;
        # the pass scales by -n / n, exactly -1.0
        _network_pass(backbone, kernel, sel, ep.inputs, ep.actions,
                      scale=-float(len(ep.actions)))
        fisher += grad[:layout.n_shared] ** 2
    fisher /= len(subset)
    return fisher


# ---------------------------------------------------------------------------
# The per-task step plan over one flat parameter vector
# ---------------------------------------------------------------------------

@dataclass
class LayerTerms:
    """Where one layer's consolidation terms act in the flat vector."""

    ewc: list[slice] | None = None   # its shared blocks, when EWC is on
    consistency: list[slice] = field(default_factory=list)  # revisited rows
    # (live (rows, k) view of a novel block, current row, row slots)
    orthogonality: list[tuple[np.ndarray, int, slice]] = field(
        default_factory=list)


@dataclass
class StepPlan:
    """Everything about the training step that stays fixed for one task.

    ``theta`` holds every block of ``adapters`` (the blocks are views of it).
    ``kernel`` fixes each layer's selected rows and einsum operands and the
    views of ``grad`` the network pass writes; other experts' rows are never
    written. ``trained`` is ``layout.trained(adapters, sel)``, the slots the
    task trains. ``snapshot`` is the previous task's parameters when a term
    reads them; ``fisher`` and ``ewc_weight`` = ``(2 lam1 F) F`` cover the
    leading ``layout.n_shared`` (shared) slots.
    """

    adapters: list[AdapterBase]
    layout: FlatLayout
    theta: np.ndarray
    sel: Selection
    cfg: ExperimentConfig
    trained: list[slice]
    snapshot: np.ndarray | None
    fisher: np.ndarray | None
    ewc_weight: np.ndarray | None
    layer_terms: list[LayerTerms]
    grad: np.ndarray
    kernel: Kernel


def build_plan(adapters: list[AdapterBase], sel: Selection,
               snapshot: np.ndarray | None, fisher: np.ndarray | None,
               flags: dict[str, int], cfg: ExperimentConfig) -> StepPlan:
    """Bind ``adapters`` to one flat vector and fix the task's constants.

    ``snapshot`` is a vector in ``FlatLayout.of(adapters)`` and ``fisher``
    one over its shared slots. ``flags`` maps expert axis name ('scene',
    'env', ...) to 1 when that expert was learned by a previous task (its
    row takes the consistency term) and leaves it out or maps it to 0.
    Afterwards every block of ``adapters`` is a view of ``plan.theta``.
    """
    layout = FlatLayout.of(adapters)
    theta = layout.bind(adapters)
    grad = np.zeros(layout.size)
    kernel = layer_kernels(adapters, sel, layout, grad)
    ewc = snapshot is not None and fisher is not None and cfg.lam1 != 0.0
    trained = layout.trained(adapters, sel)
    rows, layer_terms = iter(trained[1:]), []
    for l, (ad, ops, _) in enumerate(kernel):
        terms = LayerTerms()
        if ewc:
            terms.ewc = [layout.slots[l, name].span for name in ad.shared_names]
        for (name, axis), row, slots in zip(ad.expert_axes.items(), ops[0], rows):
            if flags.get(axis, 0):
                if snapshot is not None and cfg.lam2 != 0.0:
                    terms.consistency.append(slots)
            elif cfg.lam3 != 0.0 and name in ad.ortho_names:
                block = getattr(ad, name)
                terms.orthogonality.append(
                    (block.reshape(block.shape[0], -1), row, slots))
        layer_terms.append(terms)
    anchored = ewc or any(terms.consistency for terms in layer_terms)
    return StepPlan(adapters, layout, theta, sel, cfg, trained,
                    snapshot if anchored else None, fisher if ewc else None,
                    2.0 * cfg.lam1 * fisher * fisher if ewc else None,
                    layer_terms, grad, kernel)


# ---------------------------------------------------------------------------
# Regularizer terms (EWC + consistency + orthogonality) and the full objective
# ---------------------------------------------------------------------------

def regularizer_terms(plan: StepPlan) -> tuple[dict[str, float], np.ndarray]:
    """Losses of the three consolidation terms and their gradient over the
    flat vector; the gradient touches only slots the task trains.

    The anchor is subtracted once per step; every term reads that difference.
    Each slot adds its terms in the order EWC, consistency, orthogonality, and
    each loss adds up per block, then per layer, then across layers: the
    order of the per-block objective, on which ``train_log.jsonl``'s bits rest.
    """
    lam1, lam2, lam3 = plan.cfg.lam1, plan.cfg.lam2, plan.cfg.lam3
    grad = np.zeros_like(plan.theta)
    ewc = consistency = orthogonality = 0.0
    if plan.snapshot is not None:
        diff = plan.theta - plan.snapshot
    if plan.ewc_weight is not None:
        n = plan.layout.n_shared
        grad[:n] += plan.ewc_weight * diff[:n]
        square = np.square(plan.fisher * diff[:n])
    for terms in plan.layer_terms:
        layer_ewc = layer_consistency = layer_orthogonality = 0.0
        if terms.ewc is not None:
            for span in terms.ewc:
                layer_ewc += float(np.add.reduce(square[span]))
            layer_ewc *= lam1
        for slots in terms.consistency:
            d = diff[slots]
            layer_consistency += lam2 * float(np.add.reduce(d * d))
            grad[slots] += 2.0 * lam2 * d
        for mat, row, slots in terms.orthogonality:
            loss, row_grad = gram_penalty_and_row_grad(mat, row)
            layer_orthogonality += lam3 * loss
            grad[slots] += lam3 * row_grad
        ewc += layer_ewc
        consistency += layer_consistency
        orthogonality += layer_orthogonality
    return ({"ewc": ewc, "consistency": consistency,
             "orthogonality": orthogonality}, grad)


def total_loss_and_grads(backbone, plan: StepPlan, x, y):
    """Full training objective for one minibatch across all layers.

    Returns (terms dict, gradient over ``plan.theta``, a new vector that is
    zero on the slots the task does not train).
    """
    plan.layout.check_bound(plan.adapters, plan.theta)
    task = task_loss_and_grads(backbone, plan, x, y)
    reg_losses, grad = regularizer_terms(plan)
    terms = {"task": task, **reg_losses}
    terms["total"] = sum(terms.values())
    # the network gradient plus the regularizer's, added slot by slot
    return terms, np.add(plan.grad, grad, out=grad)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FD_STEP, FD_FLOOR = 1e-4, 1e-8   # of `finite_difference_check`


@dataclass
class AdamState:
    """Bias-corrected first/second moment vectors, laid out like the
    parameter vector (allocated by the first step)."""

    lr: float = 1e-4
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One in-place Adam update of the parameter vector ``theta``."""
    if theta.shape != grad.shape:
        raise ValueError(f"param/grad shape mismatch: {theta.shape} vs "
                         f"{grad.shape}")
    state.step += 1
    t = state.step
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    # theta -= lr m_hat / (sqrt(v_hat) + eps), in place and in this order
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    update = m / (1 - ADAM_BETA1 ** t)
    update *= state.lr
    update /= np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS
    theta -= update


# ---------------------------------------------------------------------------
# Finite-difference gradient checker
# ---------------------------------------------------------------------------

def finite_difference_check(loss_fn, plan: StepPlan,
                            analytic: np.ndarray) -> dict[str, float]:
    """Worst relative error per block of ``plan.layout`` between the flat
    gradient ``analytic`` and the fourth-order central difference
    ``(8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h``, h = FD_STEP.

    Only the slots of ``plan.trained`` are perturbed, in place on
    ``plan.theta``, so ``loss_fn`` must read the plan's live blocks. Slots
    where both gradients are below ``FD_FLOOR`` are skipped; a block with no
    checked slot reports 0.0.
    """
    theta, h = plan.theta, FD_STEP
    errors = np.zeros(plan.layout.size)
    for slots in plan.trained:
        for i in range(slots.start, slots.stop):
            orig = theta[i]
            f = []
            for step in (h, -h, 2.0 * h, -2.0 * h):
                theta[i] = orig + step
                f.append(loss_fn())
            theta[i] = orig
            num = (8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * h)
            if abs(num) < FD_FLOOR and abs(analytic[i]) < FD_FLOOR:
                continue
            errors[i] = abs(num - analytic[i]) / max(abs(num), abs(analytic[i]))
    return {key: float(np.max(block, initial=0.0))
            for key, block in plan.layout.views(errors).items()}

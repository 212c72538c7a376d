"""Which library functions the traced run wraps, and the per-layer metrics
derived from them.

A function is wrapped wherever a ``tucker_adapters`` module binds it, so a
name imported with ``from .x import f`` is traced at its call site too: a
shim placed only on the defining module would never see the calls that
``pipeline`` makes through its own binding of ``total_loss_and_grads``.

Every spanned function yields ``<layer>.calls``, ``<layer>.self_s`` and
``<layer>.p50_us`` (median duration of one call, children included). Counted
functions yield ``<layer>.calls`` only. See README.md for the end-to-end
metric each layer should move.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from workloads import DEGRADE_OPS

LIFELONG = ("lifelong_tucker4", "lifelong_lora")
EVAL = LIFELONG + ("eval_retrieval",)
TUCKER = ("lifelong_tucker4", "eval_retrieval")
DEGRADE = ("degrade_batch",)

# (module, qualified name, workloads on which it must record calls)
SPANNED = [
    ("pipeline", "run_training", LIFELONG),
    ("pipeline", "train_task", LIFELONG),
    ("training", "total_loss_and_grads", LIFELONG),
    ("training", "task_loss_and_grads", LIFELONG),
    ("training", "regularizer_terms", LIFELONG),
    ("training", "adam_step", LIFELONG),
    ("training", "fisher_estimate", LIFELONG),
    ("adapters", "AdapterBase.trainable_mask", LIFELONG),
    ("adapters", "TuckerAdapter.delta", TUCKER),
    ("adapters", "TuckerAdapter.delta_backward", ("lifelong_tucker4",)),
    ("adapters", "LoraAdapter.delta", ("lifelong_lora",)),
    ("adapters", "LoraAdapter.delta_backward", ("lifelong_lora",)),
    ("tensor_ops", "contract_adapter", TUCKER),
    ("tasks", "gen_task_data", LIFELONG),
    ("pipeline", "save_state", LIFELONG),
    ("adapters", "AdapterBase.save", LIFELONG),
    ("retrieval", "FeatureStore.add", LIFELONG),
    ("pipeline", "run_eval", EVAL),
    ("pipeline", "load_state", EVAL),
    ("adapters", "AdapterBase.load", EVAL),
    ("retrieval", "FeatureStore.load", EVAL),
    ("pipeline", "evaluate_task", EVAL),
    ("tasks", "gen_episode", EVAL),
    ("tasks", "forward_logits", EVAL),
    ("retrieval", "FeatureStore.search", EVAL),
    ("pipeline", "policy_actions", EVAL),
    ("pipeline", "episode_record", EVAL),
    ("tasks", "rollout_positions", EVAL),
    ("metrics", "score_task", EVAL),
    ("degrade", "degrade_directory", DEGRADE),
    ("degrade", "load_image", DEGRADE),
    ("degrade", "load_depth", DEGRADE),
    ("degrade", "scatter", DEGRADE),
    ("degrade", "low_light", DEGRADE),
    ("degrade", "overexpose", DEGRADE),
    ("degrade", "save_image", DEGRADE),
]

# hot tiny calls: counted with their parent span, not timed
COUNTED = [
    ("adapters", "AdapterBase.blocks", EVAL),
    ("tasks", "World.teacher_actions", EVAL),
]

# the two calls every optimizer step makes; blocks() walks under them count
STEP_SPANS = {"training.total_loss_and_grads", "training.adam_step"}

# (metric name, unit, better)
DERIVED = (
    [(f"degrade.{op}.mpix_per_s", "Mpix/s", "higher") for op in DEGRADE_OPS]
    + [("tasks.episode_draw_ratio", "ratio", "higher"),
       ("retrieval.hit_ratio", "ratio", "higher"),
       ("adapters.blocks_per_step", "calls/step", "lower"),
       ("trace.overhead_share", "ratio", "lower")])


SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def _layer_fields():
    """(layer, field, unit) for every spanned and counted layer."""
    for module, qualname, _ in SPANNED:
        for field, unit in SPAN_FIELDS:
            yield layer_name(module, qualname), field, unit
    for module, qualname, _ in COUNTED:
        yield layer_name(module, qualname), "calls", "count"


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    return [(f"{layer}.{field}", unit, "lower")
            for layer, field, unit in _layer_fields()] + DERIVED


def _library_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "tucker_adapters" or name.startswith("tucker_adapters.")]


def _wrap(tracer, module: str, qualname: str, counted: bool, **hooks) -> None:
    mod = importlib.import_module(f"tucker_adapters.{module}")
    name = layer_name(module, qualname)
    install = tracer.count if counted else tracer.span
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        install(getattr(mod, cls_name), attr, name, **hooks)
        return
    fn = getattr(mod, qualname)
    for owner in _library_modules():
        for attr, value in list(vars(owner).items()):
            if value is fn:
                install(owner, attr, name, **hooks)


def instrument(tracer) -> None:
    """Install every shim; ``tracer.restore()`` removes them all."""
    # every module first, so that all bindings exist when they are scanned
    for module in {m for m, _, _ in SPANNED + COUNTED}:
        importlib.import_module(f"tucker_adapters.{module}")
    truth: dict[str, tuple[int, int]] = {}
    from tucker_adapters import pipeline
    eval_sig = inspect.signature(pipeline.evaluate_task)

    def remember_true_pair(args, kwargs):
        task = eval_sig.bind(*args, **kwargs).arguments["task"]
        truth["pair"] = (task.scene, task.env)

    def score_retrieval(result):
        tracer.tally["retrieval.searches"] += 1
        tracer.tally["retrieval.hits"] += tuple(result) == truth.get("pair")

    def pixels(op):
        def before(args, kwargs):
            tracer.tally[f"degrade.{op}.pixels"] += args[0].shape[0] * args[0].shape[1]
        return before

    hooks = {("pipeline", "evaluate_task"): {"before": remember_true_pair},
             ("retrieval", "FeatureStore.search"): {"after": score_retrieval}}
    hooks.update({("degrade", op): {"before": pixels(op)} for op in DEGRADE_OPS})
    for module, qualname, _ in SPANNED:
        _wrap(tracer, module, qualname, False, **hooks.get((module, qualname), {}))
    for module, qualname, _ in COUNTED:
        _wrap(tracer, module, qualname, True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_share``, zero where a
    layer saw no calls."""
    summary = tracer.summary()
    out = {f"{layer}.{field}": summary.get(layer, {}).get(field, 0)
           for layer, field, _ in _layer_fields()}
    for op in DEGRADE_OPS:
        seconds = summary.get(f"degrade.{op}", {}).get("total_s", 0.0)
        out[f"degrade.{op}.mpix_per_s"] = _ratio(
            tracer.tally[f"degrade.{op}.pixels"] / 1e6, seconds)
    out["tasks.episode_draw_ratio"] = _ratio(
        out["tasks.gen_episode.calls"], out["tasks.World.teacher_actions.calls"])
    out["retrieval.hit_ratio"] = _ratio(tracer.tally["retrieval.hits"],
                                        tracer.tally["retrieval.searches"])
    out["adapters.blocks_per_step"] = _ratio(
        tracer.counted_under("adapters.AdapterBase.blocks", STEP_SPANS),
        out["training.adam_step.calls"])
    return out

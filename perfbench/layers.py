"""The spotlighter functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each layer's public entry points are wrapped by swapping the attributes
callers look them up by (see ``spans.Patch``); the package source is never
edited. Per-layer figures describe one set-up plus one operation: the
traced phase runs exactly one set-up (root span ``bench.setup``) and then
operations (root spans ``bench.op``) until its time is up, and op-phase
totals are divided by the number of operations.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from dataclasses import replace

import numpy as np

from spans import Patch, has_ancestor, root_of, self_times

SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"
INFER_KS = (4, 16, 32)

# (metric, unit, better); the order is the order BENCHMARK.json lists them in
PER_LAYER = [
    ("numerics.block_fwd.calls", "count", "lower"),
    ("numerics.block_fwd.self_ms", "ms", "lower"),
    ("numerics.block_bwd.calls", "count", "lower"),
    ("numerics.block_bwd.self_ms", "ms", "lower"),
    ("numerics.block_batch.calls", "count", "lower"),
    ("numerics.block_batch.self_ms", "ms", "lower"),
    ("numerics.layer_norm.calls", "count", "lower"),
    ("numerics.layer_norm.self_ms", "ms", "lower"),
    ("numerics.gelu.calls", "count", "lower"),
    ("numerics.gelu.self_ms", "ms", "lower"),
    ("numerics.fd_probe.calls", "count", "lower"),
    ("numerics.fd_probe.self_ms", "ms", "lower"),
    ("rng.child.calls", "count", "lower"),
    ("rng.normals.self_ms", "ms", "lower"),
    ("features.generate.self_ms", "ms", "lower"),
    ("features.write.self_ms", "ms", "lower"),
    ("features.write.bytes", "bytes", "lower"),
    ("features.read.self_ms", "ms", "lower"),
    ("memory_bank.init.calls", "count", "lower"),
    ("memory_bank.init.self_ms", "ms", "lower"),
    ("memory_bank.assign.self_ms", "ms", "lower"),
    ("memory_bank.momentum.calls", "count", "lower"),
    ("memory_bank.momentum.self_ms", "ms", "lower"),
    ("memory_bank.local_loss.self_ms", "ms", "lower"),
    ("activation.score.self_ms", "ms", "lower"),
    ("activation.select.self_ms", "ms", "lower"),
    ("activation.stratify.self_ms", "ms", "lower"),
    ("activation.signal_recall", "ratio", "higher"),
    ("representative.reps_fwd.calls", "count", "lower"),
    ("representative.reps_fwd.self_ms", "ms", "lower"),
    ("representative.reps_bwd.calls", "count", "lower"),
    ("representative.reps_bwd.self_ms", "ms", "lower"),
    ("representative.draws_per_seed", "draws/seed", "lower"),
    ("objectives.fwd_bwd.self_ms", "ms", "lower"),
    ("objectives.value.calls", "count", "lower"),
    ("objectives.value.self_ms", "ms", "lower"),
    ("pipeline.train.self_ms", "ms", "lower"),
    ("pipeline.split_accuracy.calls", "count", "lower"),
    ("pipeline.split_accuracy.self_ms", "ms", "lower"),
    ("pipeline.predict_batch.calls", "count", "lower"),
    ("pipeline.predict_batch.self_ms", "ms", "lower"),
    *((f"pipeline.predict_batch.gflops_k{k}", "GFLOP/s", "higher") for k in INFER_KS),
    ("pipeline.gradcheck.self_ms", "ms", "lower"),
    ("pipeline.save_state.self_ms", "ms", "lower"),
    ("pipeline.save_state.bytes", "bytes", "lower"),
    ("pipeline.load_state.self_ms", "ms", "lower"),
    ("cli.ablate.trainings", "count", "lower"),
    ("cli.ablate.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _spotlighter_modules():
    return [m for name, m in sys.modules.items()
            if name == "spotlighter" or name.startswith("spotlighter.")]


def _targets(tracer, signal_tokens: int):
    """(span name, original function, hooks, class or None) per traced entry."""
    from spotlighter import (activation, cli, features, memory_bank, numerics,
                             objectives, pipeline, representative, rng)

    def probe_objective(args, kwargs):
        # finite_difference_errors(f, x0, analytic, eps): trace each probe of f
        if args:
            args = (tracer.wrap("numerics.fd_probe", args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=tracer.wrap("numerics.fd_probe", kwargs["f"]))
        return args, kwargs

    def signal_recall(tr, attrs, args, kwargs, result):
        n_scores = len(args[0] if args else kwargs["scores"])
        tr.counters["signal_kept"] += int(np.count_nonzero(result < signal_tokens))
        tr.counters["signal_offered"] += min(signal_tokens, n_scores)

    def file_bytes(tr, attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def inference_shape(tr, attrs, args, kwargs, result):
        # predict_batch(tokens, state, class_set, k=None, tier_mode=None)
        cfg = args[1].config
        k = kwargs.get("k", args[3] if len(args) > 3 else None)
        tier = kwargs.get("tier_mode", args[4] if len(args) > 4 else None)
        attrs.update(n=int(np.shape(args[0])[0]), cfg=cfg,
                     k=cfg.k_act if k is None else int(k),
                     tier_mode=cfg.tier_mode if tier is None else tier)

    return [
        ("numerics.block_fwd", numerics.transformer_block_fwd, {}, None),
        ("numerics.block_bwd", numerics.transformer_block_bwd, {}, None),
        ("numerics.block_batch", numerics.transformer_block_batch, {}, None),
        ("numerics.layer_norm", numerics.layer_norm_fwd, {}, None),
        ("numerics.layer_norm", numerics.layer_norm_bwd, {}, None),
        ("numerics.gelu", numerics.gelu, {}, None),
        ("numerics.gelu", numerics.gelu_grad, {}, None),
        ("numerics.fd_check", numerics.finite_difference_errors,
         {"before": probe_objective}, None),
        ("rng.child", rng.Stream.child, {}, rng.Stream),
        ("rng.normals", rng.Stream.normals, {}, rng.Stream),
        ("features.generate", features.generate_base_novel, {}, None),
        ("features.generate", features.generate_episode, {}, None),
        ("features.write", features.write_features, {"after": file_bytes}, None),
        ("features.read", features.read_features, {}, None),
        ("memory_bank.init", memory_bank.init_bank, {}, None),
        ("memory_bank.assign", memory_bank.assign_tokens, {}, None),
        ("memory_bank.momentum", memory_bank.momentum_update, {}, None),
        ("memory_bank.local_loss", memory_bank.local_loss, {}, None),
        ("activation.score", activation.sample_scores, {}, None),
        ("activation.score", activation.semantic_scores, {}, None),
        ("activation.score", activation.combine_scores, {}, None),
        ("activation.select", activation.select_activated, {"after": signal_recall}, None),
        ("activation.stratify", activation.stratify, {}, None),
        ("representative.params_init", representative.FusionParams.init.__func__, {},
         representative.FusionParams),
        ("representative.reps_fwd", representative.reps_fwd, {}, None),
        ("representative.reps_bwd", representative.reps_bwd, {}, None),
        ("objectives.fwd_bwd", objectives.losses_fwd_bwd, {}, None),
        ("objectives.value", objectives.losses_value, {}, None),
        ("pipeline.train", pipeline.train, {}, None),
        ("pipeline.evaluate", pipeline.evaluate, {}, None),
        ("pipeline.split_accuracy", pipeline.split_accuracy, {}, None),
        ("pipeline.eval_class_set", pipeline.make_eval_class_set, {}, None),
        ("pipeline.predict_batch", pipeline.predict_batch, {"after": inference_shape}, None),
        ("pipeline.gradcheck", pipeline.gradcheck_total_loss, {}, None),
        ("pipeline.save_state", pipeline.save_state, {"after": file_bytes}, None),
        ("pipeline.load_state", pipeline.load_state, {}, None),
        ("cli.main", cli.main, {}, None),
        ("cli.ablate", cli.cmd_ablate, {}, None),
    ]


def install(tracer, signal_tokens: int) -> Patch:
    """Wrap every traced entry point; returns the patch that undoes it.

    ``signal_tokens`` is the generator's count of signal tokens per item
    (they sit at positions ``< signal_tokens``), used for the recall of
    ``select_activated``.
    """
    patch = Patch()
    modules = _spotlighter_modules()
    try:
        for name, fn, hooks, cls in _targets(tracer, signal_tokens):
            wrapper = tracer.wrap(name, fn, **hooks)
            if cls is None:
                if patch.swap_function(modules, fn, wrapper) == 0:
                    raise RuntimeError(f"no module attribute holds {fn.__qualname__}")
                continue
            attr = fn.__name__
            if isinstance(cls.__dict__[attr], classmethod):
                wrapper = classmethod(wrapper)
            patch.swap_class_attr(cls, attr, wrapper)
    except BaseException:
        patch.restore()
        raise
    return patch


def traced_code() -> dict:
    """Span name of every traced original function, keyed by its code object."""
    from spans import Tracer
    return {fn.__code__: name for name, fn, _, _ in _targets(Tracer(), 1)}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def layer_table(spans):
    """Per span name and phase: calls, self ns, total ns, summed attrs."""
    selfs = self_times(spans)
    phase_of = [spans[r][0] for r in root_of(spans)]
    table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "bytes": 0})
    for i, s in enumerate(spans):
        row = table[(phase_of[i], s[0])]
        row["calls"] += 1
        row["self_ns"] += selfs[i]
        row["total_ns"] += s[2] - s[1]
        if s[4] and "bytes" in s[4]:
            row["bytes"] += s[4]["bytes"]
    return table


def per_layer_metrics(tracer, n_ops: int, overhead_pct: float,
                      flop_count) -> dict:
    """Every PER_LAYER metric from one traced set-up and ``n_ops`` operations.

    ``flop_count(cfg, k)`` is the program's analytic cost of one inference
    item (``pipeline.flop_count_inference``).
    """
    spans = tracer.spans
    table = layer_table(spans)

    def per_unit(layer: str, field: str) -> float:
        setup = table.get((SETUP_ROOT, layer), {}).get(field, 0)
        ops = table.get((OP_ROOT, layer), {}).get(field, 0)
        return setup + ops / max(n_ops, 1)

    def count_under(name: str, ancestor: str) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and has_ancestor(spans, i, ancestor))

    out = {}
    for metric, unit, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            value = per_unit(layer, "calls")
        elif field == "self_ms":
            value = per_unit(layer, "self_ns") / 1e6
        elif field == "bytes":
            value = per_unit(layer, "bytes")
        elif metric == "activation.signal_recall":
            offered = tracer.counters["signal_offered"]
            value = tracer.counters["signal_kept"] / offered if offered else 0.0
        elif metric == "representative.draws_per_seed":
            seeds = sum(1 for s in spans if s[0] == "numerics.fd_check")
            draws = count_under("representative.params_init", "pipeline.gradcheck")
            value = draws / seeds if seeds else 0.0
        elif field.startswith("gflops_k"):
            value = _gflops(spans, int(field[len("gflops_k"):]), flop_count)
        elif metric == "cli.ablate.trainings":
            sweeps = sum(1 for s in spans if s[0] == "cli.ablate")
            value = count_under("pipeline.train", "cli.ablate") / sweeps if sweeps else 0.0
        elif metric == "trace.overhead_pct":
            value = overhead_pct
        else:
            raise KeyError(metric)
        out[metric] = {"value": float(value), "unit": unit}
    return out


def _gflops(spans, k: int, flop_count) -> float:
    """Analytic flops of the predict_batch calls at this k over their span time."""
    flops, ns = 0, 0
    cache = {}
    for s in spans:
        attrs = s[4]
        if s[0] != "pipeline.predict_batch" or attrs.get("k") != k:
            continue
        key = (id(attrs["cfg"]), attrs["tier_mode"])
        if key not in cache:
            cache[key] = flop_count(replace(attrs["cfg"], tier_mode=attrs["tier_mode"]), k)
        flops += cache[key] * attrs["n"]
        ns += s[2] - s[1]
    return flops / ns if ns else 0.0   # flop per ns is GFLOP/s


def accounted_share(spans) -> float:
    """Sum of all self times over the sum of root durations (1.0 when every
    nanosecond of every root is attributed to exactly one span)."""
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return sum(self_times(spans)) / roots if roots else 1.0

"""The traced run wraps the program without changing what it executes."""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from spans import Tracer
from spotlighter import cli, features, pipeline, representative, rng
from spotlighter.config import RunConfig

ROOT = Path(__file__).resolve().parents[2]
TINY = dict(d=16, n_tok=8, n_classes=3, signal_tokens=2, distractor_pool=6, shots=2,
            test_per_class=3, k_act=4, n_proto=2, heads=2, epochs=1, seed=5)


def _scenario(tmp_path):
    """A small pass over every traced layer; returns its outputs as bytes."""
    cfg = RunConfig(**TINY)
    with open(tmp_path / "gen.out", "w") as sink:
        old, sys.stdout = sys.stdout, sink
        try:
            assert cli.main(["gen", "--seed=5", "--d=16", "--n-tok=8", "--n-classes=3",
                             "--signal-tokens=2", "--k-act=4", f"--out-dir={tmp_path}"]) == 0
        finally:
            sys.stdout = old
    base_train, base_test, novel_test = features.generate_base_novel(
        cfg.synth_spec(), cfg.shots, cfg.test_per_class)
    features.write_features(base_train, tmp_path / "train.spot")
    base_train = features.read_features(tmp_path / "train.spot")
    state = pipeline.train(cfg, base_train)
    pipeline.save_state(state, tmp_path / "model.ckpt")
    state = pipeline.load_state(tmp_path / "model.ckpt")
    metrics = pipeline.evaluate(state, base_test, novel_test)
    ctx = pipeline.make_eval_class_set(state, base_test.text_embeddings, True)
    preds, probs = pipeline.predict_batch(base_test.tokens, state, ctx, k=4)
    report = pipeline.gradcheck_total_loss(
        RunConfig().with_overrides(**cli._GRADCHECK_DEFAULTS, seed=3), n_seeds=1)
    return (preds.tobytes() + probs.tobytes()
            + json.dumps([metrics.to_dict(), report], sort_keys=True).encode())


def _code_names():
    names = layers.traced_code()
    # the finite-difference objective is a closure made per seed; its code
    # object is a constant of the function that builds it
    for const in pipeline._fast_objective.__code__.co_consts:
        if getattr(const, "co_name", None) == "objective":
            names[const] = "numerics.fd_probe"
    return names


def _profile_calls(fn, codes):
    """Calls of the given code objects while fn runs, counted by the profiler."""
    counts = Counter()

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(prof)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, counts


def test_traced_and_untraced_runs_execute_the_same_calls(tmp_path):
    codes = _code_names()
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain_out, plain_calls = _profile_calls(lambda: _scenario(tmp_path / "plain"), codes)

    tracer = Tracer()
    patch = layers.install(tracer, signal_tokens=TINY["signal_tokens"])
    try:
        traced_out, traced_calls = _profile_calls(lambda: _scenario(tmp_path / "traced"), codes)
    finally:
        patch.restore()

    assert traced_out == plain_out
    assert traced_calls == plain_calls
    span_calls = Counter(s[0] for s in tracer.spans)
    assert {name: span_calls[name] for name in plain_calls} == dict(plain_calls)
    # every traced layer ran at least once in the scenario
    assert set(codes.values()) <= set(span_calls) | {"cli.ablate"}


def test_restore_leaves_no_wrapper_behind():
    before = {(name, key): value for name, mod in sys.modules.items()
              if name.startswith("spotlighter") for key, value in vars(mod).items()}
    patch = layers.install(Tracer(), signal_tokens=1)
    assert hasattr(pipeline.train, "__wrapped__")
    assert hasattr(rng.Stream.__dict__["normals"], "__wrapped__")
    patch.restore()
    after = {(name, key): value for name, mod in sys.modules.items()
             if name.startswith("spotlighter") for key, value in vars(mod).items()}
    assert all(after[k] is v for k, v in before.items())
    assert not hasattr(rng.Stream.__dict__["child"], "__wrapped__")
    assert isinstance(representative.FusionParams.__dict__["init"], classmethod)
    assert not hasattr(representative.FusionParams.__dict__["init"].__func__, "__wrapped__")


def test_per_layer_metrics_cover_the_list_and_account_for_the_roots(tmp_path):
    tracer = Tracer()
    patch = layers.install(tracer, signal_tokens=TINY["signal_tokens"])
    try:
        with tracer.span(layers.SETUP_ROOT):
            features.generate_base_novel(RunConfig(**TINY).synth_spec(), 1, 1)
        for _ in range(2):
            with tracer.span(layers.OP_ROOT):
                _scenario(tmp_path)
    finally:
        patch.restore()
    metrics = layers.per_layer_metrics(tracer, 2, 1.5, pipeline.flop_count_inference)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert all(np.isfinite(m["value"]) for m in metrics.values())
    assert metrics["numerics.block_fwd.calls"]["value"] > 0
    assert metrics["pipeline.predict_batch.gflops_k4"]["value"] > 0
    assert metrics["representative.draws_per_seed"]["value"] >= 1
    assert 0 < metrics["activation.signal_recall"]["value"] <= 1
    assert metrics["trace.overhead_pct"]["value"] == 1.5
    assert layers.accounted_share(tracer.spans) == pytest.approx(1.0, abs=1e-12)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    from workloads import WORKLOADS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]

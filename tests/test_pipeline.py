import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotlighter import pipeline
from spotlighter.activation import (
    VARIANTS,
    check_selection,
    combine_scores,
    sample_scores,
    select_activated,
    semantic_scores,
    stratify,
)
from spotlighter.config import TIER_MODES, RunConfig
from spotlighter.errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    EmptySplit,
    KOutOfRange,
    SpotlighterError,
    TruncatedFile,
    UsageError,
    VersionMismatch,
    WorkloadTooSmall,
)
from spotlighter.features import FeatureSet, generate_base_novel
from spotlighter.memory_bank import match_class
from spotlighter.numerics import normalize_rows, softmax_rows
from spotlighter.objectives import TAU
from spotlighter.pipeline import (
    _CHUNK,
    _state_tensors,
    bench_throughput,
    evaluate,
    flop_count_inference,
    harmonic_mean,
    load_state,
    make_eval_class_set,
    predict_batch,
    predict_modes,
    save_state,
    split_accuracies,
    split_accuracy,
    train,
)
from spotlighter.representative import reps_fwd, tier_inputs


# --- harmonic mean ---------------------------------------------------------------

def test_harmonic_mean_reference_values():
    assert abs(harmonic_mean(77.62, 71.71) - 74.55) < 0.01
    assert abs(harmonic_mean(69.34, 74.22) - 71.70) < 0.01


def test_harmonic_mean_identity_and_zero():
    for x in (0.0, 12.5, 77.7, 100.0):
        assert abs(harmonic_mean(x, x) - x) < 1e-12
    assert harmonic_mean(100.0, 0.0) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 100), st.floats(0, 100))
def test_harmonic_mean_bounds(b, n):
    hm = harmonic_mean(b, n)
    assert hm <= (b + n) / 2 + 1e-9
    assert min(b, n) - 1e-9 <= hm <= max(b, n) + 1e-9


# --- training -------------------------------------------------------------------

def test_zero_epochs_initialized_empty_history(tiny_config, tiny_episode):
    base_train, _, _ = tiny_episode
    state = train(tiny_config.with_overrides(epochs=0), base_train)
    assert state.history == []
    assert state.params.flat.size > 0


def test_training_leaves_frozen_parts_untouched(tiny_config, tiny_episode):
    base_train, _, _ = tiny_episode
    tokens_before = base_train.tokens.tobytes()
    text_before = base_train.text_embeddings.tobytes()
    state0 = train(tiny_config.with_overrides(epochs=0), base_train)
    theta_before = state0.theta.to_bytes()
    state = train(tiny_config, base_train)
    assert base_train.tokens.tobytes() == tokens_before
    assert base_train.text_embeddings.tobytes() == text_before
    assert state.theta.to_bytes() == theta_before  # same seed, untouched by steps


def test_training_updates_only_fusion_params(tiny_config, tiny_episode):
    base_train, _, _ = tiny_episode
    init = train(tiny_config.with_overrides(epochs=0), base_train)
    trained = train(tiny_config, base_train)
    changed = any(
        not np.array_equal(a, b)
        for (_, a), (_, b) in zip(init.params.tensors(), trained.params.tensors())
    )
    assert changed
    assert trained.theta.to_bytes() == init.theta.to_bytes()


def test_history_records_every_epoch(tiny_state, tiny_config):
    assert len(tiny_state.history) == tiny_config.epochs
    for i, rec in enumerate(tiny_state.history):
        assert rec["epoch"] == i
        for key in ("cls", "cls_low", "cls_high", "reg_text", "kl_visual",
                    "local", "total", "bank_drift"):
            assert np.isfinite(rec[key])
        assert "train_acc" not in rec  # training scores no split


def test_bank_drift_is_each_epochs_change_of_the_bank(tiny_state, tiny_config, tiny_episode):
    # epoch e shuffles by its own stream, so a shorter training stops at the
    # bank the longer one had after epoch e
    base_train, _, _ = tiny_episode
    banks = [train(tiny_config.with_overrides(epochs=e), base_train).bank.prototypes
             for e in range(tiny_config.epochs)] + [tiny_state.bank.prototypes]
    for e, rec in enumerate(tiny_state.history):
        assert rec["bank_drift"] == float(np.linalg.norm(banks[e + 1] - banks[e]))
        assert rec["bank_drift"] > 0.0


def test_determinism_identical_states(tiny_config, tiny_episode, tmp_path):
    base_train, base_test, novel_test = tiny_episode
    a = train(tiny_config, base_train)
    b = train(tiny_config, base_train)
    save_state(a, tmp_path / "a.ckpt")
    save_state(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    ma = evaluate(a, base_test, novel_test)
    mb = evaluate(b, base_test, novel_test)
    assert ma.to_dict() == mb.to_dict()


def test_trained_state_does_not_depend_on_tier_mode(tiny_config, tiny_episode):
    # the ablation sweep trains once per cell and evaluates that state under
    # every tier mode, which is right only while this holds
    base_train, _, _ = tiny_episode
    ref, *others = (train(tiny_config.with_overrides(tier_mode=mode), base_train)
                    for mode in ("both", "lev1", "lev2"))
    for state in others:
        for (name, a), (name_b, b) in zip(ref.params.tensors(), state.params.tensors()):
            assert name == name_b and a.tobytes() == b.tobytes(), name
        assert state.theta.to_bytes() == ref.theta.to_bytes()
        assert state.bank.prototypes.tobytes() == ref.bank.prototypes.tobytes()


@pytest.mark.parametrize("k_act, digest", [
    (4, "8040f592b70abeef8deee22d97f9df79deaaeaab713c82bfcf87f5caab7b51a8"),
    (5, "1be9d12f74fb9a085004bf31a7dade5a39d0dd411ae18ad35cf6c6b4dd46b444"),
], ids=["even_k", "odd_k"])
def test_trained_state_bytes_are_pinned(tiny_config, tiny_episode, k_act, digest):
    # SHA-256 of the trained parameters (wire order) and bank, recorded when
    # each tier still ran its own block calls: stacking the tiers changes no
    # bit. Even k_act fuses both tiers as one group, odd k_act as two.
    state = train(tiny_config.with_overrides(k_act=k_act), tiny_episode[0])
    h = hashlib.sha256()
    for _, arr in state.params.tensors():
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(state.bank.prototypes, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


# --- prediction -----------------------------------------------------------------

def test_predict_separable_item(tiny_config):
    # every token is a clean class direction: identification is exact
    cfg = tiny_config.with_overrides(noise_sigma=0.0, signal_tokens=8, epochs=0)
    base_train, base_test, _ = generate_base_novel(cfg.synth_spec(), cfg.shots,
                                                   cfg.test_per_class)
    state = train(cfg, base_train)
    ctx = make_eval_class_set(state, base_test.text_embeddings, True)
    for i in range(base_test.n_items):
        pred, probs = predict_batch(base_test.tokens[i][None], state, ctx)
        assert pred[0] == int(base_test.labels[i])
        assert abs(probs[0].sum() - 1.0) < 1e-9


def test_predict_probability_contract(tiny_state, tiny_episode):
    _, base_test, _ = tiny_episode
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    pred, probs = predict_batch(base_test.tokens[0][None], tiny_state, ctx)
    assert probs.shape == (1, base_test.n_classes)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert pred[0] == int(np.argmax(probs))


def composed_predict(X, state, ctx, tier_mode=None):
    """One item through a by-hand composition of the stage operations."""
    cfg = state.config
    tier_mode = cfg.tier_mode if tier_mode is None else tier_mode
    c_hat = match_class(normalize_rows(X.mean(axis=0)), ctx.matching_bank)
    protos = ctx.fusion_bank.prototypes[c_hat]
    combined = combine_scores(sample_scores(X, ctx.text[c_hat]),
                              semantic_scores(X, protos) if cfg.semantic_on else None)
    sel = select_activated(combined, cfg.k_act, cfg.selection_variant)
    t1, t2 = stratify(sel, combined, X, protos, cfg.recalc_on)
    if tier_mode == "lev1":
        tiers = [(0, X[t1])]
    elif tier_mode == "lev2":
        tiers = [(1, X[t2])]
    else:
        tiers = [(0, X[t1])] + ([(1, X[t2])] if t2.size else [])
    V, R, _ = reps_fwd(tier_inputs(tiers, ctx.text, TAU), protos, state.params,
                       state.theta)
    v = normalize_rows(np.vstack(V).mean(axis=0))
    Tp = normalize_rows(np.stack(R, axis=1).mean(axis=1))
    probs = softmax_rows(Tp @ v, TAU)
    return int(np.argmax(probs)), probs


def assert_batch_matches_composition(tokens, state, ctx, tier_mode=None):
    preds, probs = predict_batch(tokens, state, ctx, tier_mode=tier_mode)
    assert preds.shape == (len(tokens),)
    for i in range(len(tokens)):
        want, want_probs = composed_predict(tokens[i].astype(float), state, ctx, tier_mode)
        assert preds[i] == want
        assert np.abs(probs[i] - want_probs).max() < 1e-9


def test_predict_batch_matches_per_item(tiny_state, tiny_episode):
    _, base_test, novel_test = tiny_episode
    for split, trained in ((base_test, True), (novel_test, False)):
        ctx = make_eval_class_set(tiny_state, split.text_embeddings, trained)
        for tier_mode in ("both", "lev1", "lev2"):
            assert_batch_matches_composition(split.tokens, tiny_state, ctx, tier_mode)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("recalc", [True, False])
def test_predict_batch_matches_per_item_on_variants(tiny_config, variant, recalc):
    cfg = tiny_config.with_overrides(selection_variant=variant, recalc_on=recalc,
                                     epochs=1)
    tr, bt, _ = generate_base_novel(cfg.synth_spec(), cfg.shots, cfg.test_per_class)
    state = train(cfg, tr)
    ctx = make_eval_class_set(state, bt.text_embeddings, True)
    assert_batch_matches_composition(bt.tokens, state, ctx)


def test_predict_batch_crosses_chunk_boundaries(tiny_state, tiny_config):
    n = 2 * _CHUNK + 3
    _, big, _ = generate_base_novel(tiny_config.synth_spec(), 1,
                                    -(-n // tiny_config.n_classes))
    ctx = make_eval_class_set(tiny_state, big.text_embeddings, True)
    assert_batch_matches_composition(big.tokens[:n], tiny_state, ctx)


def test_predict_batch_bytes_do_not_depend_on_chunking(tiny_state, tiny_episode, monkeypatch):
    _, base_test, _ = tiny_episode
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    want = predict_batch(base_test.tokens.astype(np.float64), tiny_state, ctx)
    monkeypatch.setattr(pipeline, "_CHUNK", 5)
    got = predict_batch(base_test.tokens, tiny_state, ctx)  # float32, widened per chunk
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_predict_matches_independent_composition(tiny_state, tiny_episode):
    """Five items, each a batch of one, through predict_batch and through
    the by-hand composition."""
    _, base_test, _ = tiny_episode
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    for i in range(5):
        X = base_test.tokens[i].astype(float)
        want, want_probs = composed_predict(X, tiny_state, ctx)
        got, got_probs = predict_batch(X[None], tiny_state, ctx)
        assert got[0] == want
        assert np.abs(got_probs[0] - want_probs).max() < 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_batch_rejects_non_3d_input(tiny_state, tiny_episode, variant):
    _, base_test, _ = tiny_episode
    state = replace(tiny_state,
                    config=tiny_state.config.with_overrides(selection_variant=variant))
    ctx = make_eval_class_set(state, base_test.text_embeddings, True)
    X = base_test.tokens.astype(float)
    for bad in (X[0], X[None]):
        with pytest.raises(DimMismatch):
            predict_batch(bad, state, ctx)


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_batch_rejects_k_out_of_range(tiny_state, tiny_episode, variant):
    _, base_test, _ = tiny_episode
    state = replace(tiny_state,
                    config=tiny_state.config.with_overrides(selection_variant=variant))
    ctx = make_eval_class_set(state, base_test.text_embeddings, True)
    for k in (0, base_test.n_tok + 1):
        with pytest.raises(KOutOfRange):
            predict_batch(base_test.tokens, state, ctx, k=k)
        with pytest.raises(KOutOfRange):
            predict_batch(base_test.tokens[:1], state, ctx, k=k)


def test_predict_batch_empty_batch(tiny_state, tiny_episode):
    _, base_test, _ = tiny_episode
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    preds, probs = predict_batch(base_test.tokens[:0], tiny_state, ctx)
    assert preds.shape == (0,)
    assert probs.shape == (0, base_test.n_classes)


def test_tier_mode_outside_the_list_rejected(tiny_state, tiny_episode):
    _, base_test, novel_test = tiny_episode
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    with pytest.raises(ConfigError):
        predict_batch(base_test.tokens, tiny_state, ctx, tier_mode="bogus")
    with pytest.raises(ConfigError):
        evaluate(tiny_state, base_test, novel_test, tier_mode="LEV1")


def test_tier_mode_lev1_lev2_run(tiny_state, tiny_episode):
    _, base_test, novel_test = tiny_episode
    for mode in ("lev1", "lev2"):
        m = evaluate(tiny_state, base_test, novel_test, tier_mode=mode)
        assert 0 <= m.base_acc <= 100
        assert 0 <= m.novel_acc <= 100


def rejection(call):
    """(class, message) of the package error `call()` raises."""
    with pytest.raises(SpotlighterError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("k, digest", [
    (4, "7905417602d3928a2de567c38052d1c43cf74ceb3898ce66319dfb7928b6176e"),
    (1, "ae4c29b7297ba534c29e17fa33c2b05a8f72f19ae00c14f6f6068b6b988e9724"),
], ids=["all_modes", "lev2_rejected"])
def test_shared_pass_equals_one_pass_per_mode_bitwise(tiny_state, tiny_episode, k, digest):
    # one front end and one fusion serve the tier modes: each mode's preds
    # and probs equal a pass of its own byte for byte, and their SHA-256 was
    # recorded when every mode ran its own front end; at k=1 lev2 keeps too
    # few tokens, so the shared pass scores the other two, and asked for
    # lev2 it raises the error predict_batch raises
    _, base_test, novel_test = tiny_episode
    modes = [mode for mode in TIER_MODES if (k, mode) != (1, "lev2")]
    h = hashlib.sha256()
    for split, trained in ((base_test, True), (novel_test, False)):
        ctx = make_eval_class_set(tiny_state, split.text_embeddings, trained)
        shared = predict_modes(split.tokens, tiny_state, ctx, modes, k=k)
        assert list(shared) == modes
        for mode in modes:
            want = predict_batch(split.tokens, tiny_state, ctx, k=k, tier_mode=mode)
            for got, ref in zip(shared[mode], want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            h.update(want[0].astype("<i8").tobytes())
            h.update(want[1].astype("<f8").tobytes())
        if k == 1:
            got = rejection(lambda: predict_modes(split.tokens, tiny_state, ctx, TIER_MODES, k=k))
            assert got[0] is ConfigError
            assert got == rejection(lambda: predict_batch(split.tokens, tiny_state, ctx, k=k,
                                                          tier_mode="lev2"))
    assert h.hexdigest() == digest


@pytest.mark.parametrize("k_act", [4, 1])
def test_split_accuracies_equal_one_split_accuracy_per_mode(tiny_state, tiny_episode, k_act):
    _, base_test, novel_test = tiny_episode
    state = replace(tiny_state, config=tiny_state.config.with_overrides(k_act=k_act))
    modes = [mode for mode in TIER_MODES if (k_act, mode) != (1, "lev2")]
    for split, trained in ((base_test, True), (novel_test, False)):
        shared = split_accuracies(state, split, trained, modes)
        assert list(shared) == modes
        for mode in modes:
            assert shared[mode] == split_accuracy(state, split, trained, mode)
        if k_act == 1:
            ctx = make_eval_class_set(state, split.text_embeddings, trained)
            want = rejection(lambda: predict_batch(split.tokens, state, ctx, tier_mode="lev2"))
            assert want[0] is ConfigError
            assert rejection(lambda: split_accuracies(state, split, trained, TIER_MODES)) == want
            assert rejection(lambda: split_accuracy(state, split, trained, "lev2")) == want


def test_check_selection_is_the_rule_predict_batch_follows(tiny_state, tiny_episode,
                                                           monkeypatch):
    # n_tok 1-8, every k in [0, n_tok + 1], every variant and tier mode:
    # check_selection passes exactly when predict_batch returns, which is
    # when the tiers the mode reads hold a token; the tiers that reach
    # reps_fwd are those nonempty read tiers, ceil(m/2) high and floor(m/2)
    # low tokens of the m kept
    _, base_test, _ = tiny_episode
    tiers_read = {"both": (0, 1), "lev1": (0,), "lev2": (1,)}
    fused = []
    reps = pipeline.reps_fwd

    def spy(tiers, *args, **kwargs):
        fused.append([(t, tokens.shape[-2]) for t, tokens, _ in tiers])
        return reps(tiers, *args, **kwargs)

    monkeypatch.setattr(pipeline, "reps_fwd", spy)
    for variant in VARIANTS:
        state = replace(tiny_state,
                        config=tiny_state.config.with_overrides(selection_variant=variant))
        ctx = make_eval_class_set(state, base_test.text_embeddings, True)
        for n_tok in range(1, 9):
            X = base_test.tokens[:2, :n_tok]
            for k in range(n_tok + 2):
                kept = n_tok - k if variant == "remove-top-k" else k
                sizes = (math.ceil(kept / 2), kept // 2)
                for mode in TIER_MODES:
                    want = [(t, sizes[t]) for t in tiers_read[mode] if sizes[t] > 0]
                    ok = 1 <= k <= n_tok and bool(want)
                    case = (variant, n_tok, k, mode)
                    try:
                        check_selection(n_tok, k, variant, mode)
                        checked = True
                    except UsageError:
                        checked = False
                    fused.clear()
                    try:
                        predict_batch(X, state, ctx, k=k, tier_mode=mode)
                        returned = True
                    except UsageError:
                        returned = False
                    assert checked == returned == ok, case
                    assert fused == ([want] if ok else []), case


def test_config_variants_train_and_evaluate(tiny_config, tiny_episode):
    base_train, base_test, novel_test = tiny_episode
    from spotlighter.representative import trainable_param_count

    cfg = tiny_config.with_overrides(epochs=1, k_act=1)
    state = train(cfg, base_train)
    m = evaluate(state, base_test, novel_test)
    assert np.isfinite(m.harmonic)
    assert (sum(a.size for _, a in state.params.tensors())
            == trainable_param_count(cfg.d))


# --- evaluation -----------------------------------------------------------------

def test_evaluate_perfect_case(tiny_config):
    cfg = tiny_config.with_overrides(noise_sigma=0.0, signal_tokens=8, epochs=1)
    tr, bt, nt = generate_base_novel(cfg.synth_spec(), cfg.shots, cfg.test_per_class)
    state = train(cfg, tr)
    m = evaluate(state, bt, nt)
    assert m.base_acc == 100.0
    assert m.novel_acc == 100.0
    assert m.harmonic == 100.0
    assert all(x == 100.0 for x in m.per_class_base + m.per_class_novel)


def test_evaluate_hand_tally(tiny_state, tiny_episode):
    _, base_test, _ = tiny_episode
    sub = FeatureSet(tokens=base_test.tokens[:10].copy(),
                     labels=base_test.labels[:10].copy(),
                     text_embeddings=base_test.text_embeddings.copy())
    acc, per_class = split_accuracy(tiny_state, sub, use_trained_bank=True)
    ctx = make_eval_class_set(tiny_state, sub.text_embeddings, True)
    hits = 0
    per = {c: [0, 0] for c in range(sub.n_classes)}
    for i in range(10):
        pred = predict_batch(sub.tokens[i][None], tiny_state, ctx)[0][0]
        y = int(sub.labels[i])
        hits += pred == y
        per[y][1] += 1
        per[y][0] += pred == y
    assert abs(acc - 100.0 * hits / 10) < 1e-9
    for c in range(sub.n_classes):
        want = 100.0 * per[c][0] / per[c][1] if per[c][1] else 0.0
        assert abs(per_class[c] - want) < 1e-9


def test_evaluate_metrics_invariant(tiny_state, tiny_episode):
    _, base_test, novel_test = tiny_episode
    m = evaluate(tiny_state, base_test, novel_test)
    assert min(m.base_acc, m.novel_acc) - 1e-9 <= m.harmonic
    assert m.harmonic <= max(m.base_acc, m.novel_acc) + 1e-9


def test_evaluate_empty_split_rejected(tiny_state, tiny_episode):
    _, base_test, _ = tiny_episode
    empty = FeatureSet(tokens=np.zeros((0, base_test.n_tok, base_test.d), np.float32),
                       labels=np.zeros(0, np.uint32),
                       text_embeddings=base_test.text_embeddings.copy())
    with pytest.raises(EmptySplit):
        evaluate(tiny_state, empty, base_test)


# --- checkpointing -----------------------------------------------------------------

def test_save_load_round_trip(tiny_state, tmp_path):
    p1 = tmp_path / "state.ckpt"
    save_state(tiny_state, p1)
    loaded = load_state(p1)
    p2 = tmp_path / "state2.ckpt"
    save_state(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.config == tiny_state.config
    assert loaded.history == tiny_state.history


def test_loaded_state_predicts_identically(tiny_state, tiny_episode, tmp_path):
    _, base_test, _ = tiny_episode
    path = tmp_path / "state.ckpt"
    save_state(tiny_state, path)
    loaded = load_state(path)
    ctx_a = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    ctx_b = make_eval_class_set(loaded, base_test.text_embeddings, True)
    n = min(20, base_test.n_items)
    preds_a, _ = predict_batch(base_test.tokens[:n], tiny_state, ctx_a)
    preds_b, _ = predict_batch(base_test.tokens[:n], loaded, ctx_b)
    assert np.array_equal(preds_a, preds_b)


def test_checkpoint_reloads_the_trained_state_exactly(tiny_state, tiny_episode, tmp_path):
    _, base_test, novel_test = tiny_episode
    path = tmp_path / "state.ckpt"
    save_state(tiny_state, path)
    loaded = load_state(path)
    for (name, a), (_, b) in zip(_state_tensors(tiny_state), _state_tensors(loaded)):
        assert a.tobytes() == b.tobytes(), name
    assert (evaluate(loaded, base_test, novel_test).to_dict()
            == evaluate(tiny_state, base_test, novel_test).to_dict())
    for k in (1, 4, base_test.n_tok):
        probs = [predict_batch(base_test.tokens, state,
                               make_eval_class_set(state, base_test.text_embeddings, True),
                               k=k)[1].tobytes()
                 for state in (tiny_state, loaded)]
        assert probs[0] == probs[1], k


def test_load_rejects_bad_magic(tiny_state, tmp_path):
    path = tmp_path / "state.ckpt"
    save_state(tiny_state, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"WRONGMAG"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_state(path)


def test_load_rejects_version_mismatch(tiny_state, tmp_path):
    path = tmp_path / "state.ckpt"
    save_state(tiny_state, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_state(path)


def test_load_rejects_truncation(tiny_state, tmp_path):
    path = tmp_path / "state.ckpt"
    save_state(tiny_state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(TruncatedFile):
        load_state(path)


# --- benchmark -----------------------------------------------------------------

def test_bench_requires_minimum_workload(tiny_state):
    with pytest.raises(WorkloadTooSmall):
        bench_throughput(tiny_state, n_items=50, k_list=[2])


def test_bench_checks_the_k_list_before_generating(tiny_state, monkeypatch):
    def generate(*args):
        raise AssertionError("workload generated for an invalid k list")

    monkeypatch.setattr(pipeline, "generate_base_novel", generate)
    with pytest.raises(KOutOfRange, match="k=99"):
        bench_throughput(tiny_state, n_items=120, k_list=[2, 99])


def test_bench_checks_each_k_under_the_checkpoint_tier_mode(tiny_state, tiny_episode,
                                                           monkeypatch):
    # lev2 reads the low tier, which k=1 leaves empty: bench rejects that k
    # before generating, with the error predict_batch raises
    def generate(*args):
        raise AssertionError("workload generated for a k the tier mode rejects")

    state = replace(tiny_state, config=tiny_state.config.with_overrides(tier_mode="lev2"))
    monkeypatch.setattr(pipeline, "generate_base_novel", generate)
    got = rejection(lambda: bench_throughput(state, n_items=120, k_list=[1, 4]))
    _, base_test, _ = tiny_episode
    ctx = make_eval_class_set(state, base_test.text_embeddings, True)
    assert got[0] is ConfigError
    assert got == rejection(lambda: predict_batch(base_test.tokens, state, ctx, k=1))


def test_bench_report_contract(tiny_state):
    rep = bench_throughput(tiny_state, n_items=120, k_list=[2, 4], reps=2)
    assert {r.k for r in rep.rows} == {2, 4}
    assert rep.full_row.k == tiny_state.config.n_tok
    for row in rep.rows + [rep.full_row]:
        assert row.items_per_sec > 0
        assert len(row.rep_times) == 2
    assert rep.trainable_param_count == tiny_state.params.flat.size
    # identical seeds give identical accuracy numbers
    rep2 = bench_throughput(tiny_state, n_items=120, k_list=[2, 4], reps=2)
    assert [r.accuracy for r in rep2.rows] == [r.accuracy for r in rep.rows]


def test_bench_tiny_k_accuracy_not_better(tiny_state):
    cfg = tiny_state.config
    rep = bench_throughput(tiny_state, n_items=120, k_list=[1, cfg.k_act], reps=1)
    acc = {row.k: row.accuracy for row in rep.rows}
    assert acc[1] <= acc[cfg.k_act] + 1e-9


def test_flop_count_strictly_increasing(tiny_state):
    cfg = tiny_state.config
    flops = [flop_count_inference(cfg, k) for k in range(1, cfg.n_tok + 1)]
    assert all(b > a for a, b in zip(flops, flops[1:]))


def test_flop_count_full_exceeds_pruned():
    cfg = RunConfig()
    assert flop_count_inference(cfg, 32) > flop_count_inference(cfg, 8)


def test_flop_count_pins_the_prefix_query_frozen_block():
    # per tier the frozen block runs K query rows over K + m key/value rows
    assert flop_count_inference(RunConfig(), 16) == 2_169_172


def test_flop_count_counts_the_tokens_remove_top_k_keeps():
    # remove-top-k at k = 4 keeps 28 of the 32 tokens
    assert (flop_count_inference(RunConfig(selection_variant="remove-top-k"), 4)
            == flop_count_inference(RunConfig(), 28))
